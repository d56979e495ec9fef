package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"dscts/internal/bench"
	"dscts/internal/cluster"
	"dscts/internal/core"
	"dscts/internal/corner"
	"dscts/internal/dme"
	"dscts/internal/geom"
	"dscts/internal/insert"
	"dscts/internal/refine"
	"dscts/internal/tech"
)

// monoVariants are the option variants table2-mono runs every placement
// under: the paper's full double-side flow, the heterogeneous DP at two
// fanout thresholds, and single-side synthesis.
var monoVariants = []struct {
	name string
	opt  core.Options
}{
	{"full", core.Options{}},
	{"fo150", core.Options{FanoutThreshold: 150}},
	{"fo600", core.Options{FanoutThreshold: 600}},
	{"single", core.Options{Mode: core.SingleSide}},
}

// runMono is the table2-mono workload: a closed loop with one caller that
// runs core.Synthesize over the paper's C1..C5 instances (the seed-1
// placements the golden metrics pin) under every option variant. Six of
// the 20 (design, variant) pairs, covering every design, add slow/typ/fast
// sign-off, so about every third job runs it, and each pair is one kind of
// job with one cost. Each cycle holds every pair once, in an order drawn
// from the seed, and the loop runs whole cycles, so every run holds the
// same job mix. The QoR job
// list is the first cycle plus the same pairs on three placements drawn
// from the seed, run after the loop.
func runMono(r *run) error {
	tc := tech.ASAP7()
	suite := bench.Suite()
	var setups, gens []float64
	var table2, seeded []*bench.Placement
	for rep := 0; rep < setupReps; rep++ {
		settle()
		t0, c0 := time.Now(), cpuNow()
		table2, seeded = table2[:0], seeded[:0]
		for _, d := range suite {
			p, err := bench.Generate(d, 1)
			if err != nil {
				return err
			}
			table2 = append(table2, p)
			for _, seed := range monoQoRSeeds(r.seed) {
				if p, err = bench.Generate(d, seed); err != nil {
					return err
				}
				seeded = append(seeded, p)
			}
		}
		gens = append(gens, ms(time.Since(t0)))
		// Warm-up doubles as the golden check: the seed-1 placements under
		// the default options must match testdata/golden.
		for _, p := range table2 {
			out, err := core.Synthesize(p.Root, p.Sinks, tc, core.Options{Workers: r.workers})
			if err != nil {
				return fmt.Errorf("warm-up %s: %w", p.Design.ID, err)
			}
			if rep == 0 {
				if err := checkGolden(p.Design.ID, len(p.Sinks), out.Metrics); err != nil {
					r.problem("golden: %v", err)
				}
			}
		}
		setups = append(setups, (cpuNow() - c0).Seconds())
	}
	r.m["setup_s"] = quantile(setups, 0.5)
	r.m["bench.generate_ms"] = quantile(gens, 0.5)

	type job struct {
		place   *bench.Placement
		variant int
		signoff bool
	}
	pairs := func(places []*bench.Placement) []job {
		var out []job
		for d, p := range places {
			for v := range monoVariants {
				out = append(out, job{p, v, (d+v)%3 == 2})
			}
		}
		return out
	}
	jobs := pairs(table2)
	rng := rand.New(rand.NewSource(r.seed))
	var loop closedLoop
	var q qor
	var dp, refAttempted, refInserted float64
	traced, tracedChecked := 0, false
	settle()
	mem := startMem()
	deadline := r.deadline(time.Now())
	n := 0
	for cycle := 0; cycle < 2 || time.Now().Before(deadline); cycle++ {
		rng.Shuffle(len(jobs), func(a, b int) { jobs[a], jobs[b] = jobs[b], jobs[a] })
		tracing := r.tr != nil && cycle%2 == 1
		for _, jb := range jobs {
			opt := monoVariants[jb.variant].opt
			opt.Workers = r.workers
			if jb.signoff {
				opt.Corners = corner.Presets()
			}
			kind := fmt.Sprintf("%s/%s", jb.place.Design.ID, monoVariants[jb.variant].name)
			n++
			req := fmt.Sprintf("%s/%s/%d", jb.place.Design.ID, monoVariants[jb.variant].name, n)
			r.attempted++
			t0, c0 := time.Now(), cpuNow()
			var out *core.Outcome
			var err error
			if tracing {
				out, err = monoTraced(r.tr, req, jb.place.Root, jb.place.Sinks, tc, opt)
			} else {
				out, err = core.Synthesize(jb.place.Root, jb.place.Sinks, tc, opt)
			}
			took, cpu := time.Since(t0), cpuNow()-c0
			if err != nil {
				r.failed++
				fmt.Printf("# job %s failed: %v\n", req, err)
				continue
			}
			loop.add(kind, took, cpu, tracing)
			so, err := checkTree(out.Tree, len(jb.place.Sinks), tc)
			if err != nil {
				r.problem("%s: %v", req, err)
			}
			if cycle == 0 {
				q.add(out.Metrics, so)
			}
			if !tracing {
				continue
			}
			traced++
			dp += float64(out.DP.Solutions)
			refAttempted += float64(out.Refine.Attempted)
			refInserted += float64(out.Refine.Inserted)
			r.m["insert.nodes"] += float64(out.DP.Nodes)
			if !tracedChecked {
				tracedChecked = true
				if err := sameAsPlain(out, jb.place, tc, opt); err != nil {
					r.problem("%s: traced decomposition differs from core.Synthesize: %v", req, err)
				}
			}
		}
	}
	mem.report(r, len(loop.cpu))
	loop.report(r)

	// The rest of the QoR list, untimed; one of its jobs is re-run at
	// Workers=1.
	list := pairs(seeded)
	checkAt := rng.Intn(len(list))
	for i, jb := range list {
		opt := monoVariants[jb.variant].opt
		opt.Workers = r.workers
		out, err := core.Synthesize(jb.place.Root, jb.place.Sinks, tc, opt)
		if err != nil {
			r.problem("QoR job %s/%s: %v", jb.place.Design.ID, monoVariants[jb.variant].name, err)
			continue
		}
		so, err := checkTree(out.Tree, len(jb.place.Sinks), tc)
		if err != nil {
			r.problem("QoR job %s: %v", jb.place.Design.ID, err)
		}
		q.add(out.Metrics, so)
		if i == checkAt {
			opt.Workers = 1
			if err := sameAsPlain(out, jb.place, tc, opt); err != nil {
				r.problem("%s: Workers=1 differs from Workers=%d: %v", jb.place.Design.ID, r.workers, err)
			}
		}
	}
	q.report(r)
	r.m["peak_rss_mb"] = peakRSSMB()
	if r.tr != nil {
		per := float64(max(traced, 1))
		for _, layer := range []string{"cluster", "dme", "insert", "refine", "eval", "corner"} {
			r.m[layer+".busy_ms"] = r.tr.sum(layer) / per
		}
		r.m["insert.solutions"] = dp / per
		r.m["insert.nodes"] /= per
		r.m["refine.attempted"] = refAttempted / per
		r.m["refine.inserted"] = refInserted / per
		if refAttempted > 0 {
			r.m["refine.accept_ratio"] = refInserted / refAttempted
		}
		// The evaluation hand-off performs no evaluation of its own, so
		// eval.calls stays 0 here (see monoTraced).
		r.m["core.self_ms"] = r.reportCoverage() / per
		r.zeroUnset()
	}
	return nil
}

// monoQoRSeeds are the placement seeds of the QoR job list.
func monoQoRSeeds(seed int64) []int64 { return []int64{seed, seed + 7919, seed + 15838} }

// sameAsPlain re-runs a placement through core.Synthesize with opt and
// compares the result with out.
func sameAsPlain(out *core.Outcome, p *bench.Placement, tc *tech.Tech, opt core.Options) error {
	ref, err := core.Synthesize(p.Root, p.Sinks, tc, opt)
	if err != nil {
		return err
	}
	return sameOutcome(out, ref)
}

// monoTraced runs the monolithic flow layer by layer through each layer's
// public entry point — cluster.DualLevel, dme.HierarchicalRoute,
// insert.RunContext, refine.RefineContext, the evaluation hand-off and
// corner.Evaluate — with the defaults core.Synthesize applies, recording a
// span per layer under one job span. The result is bit-identical to
// core.Synthesize with the same options (checked once per traced run).
func monoTraced(tr *tracer, req string, root geom.Point, sinks []geom.Point, tc *tech.Tech, opt core.Options) (*core.Outcome, error) {
	ctx := context.Background()
	start := time.Now()
	job := tr.open("job", -1, req, start)
	defer func() { tr.close(job, time.Now()) }()
	mark := start
	step := func(name string) {
		now := time.Now()
		tr.add(name, job, req, 0, mark, now)
		mark = now
	}
	out := &core.Outcome{}

	d := cluster.DefaultDualOptions()
	d.Workers = opt.Workers
	front := tc.Front()
	d.CapOf = func(s, c geom.Point) float64 { return tc.SinkCap + front.UnitCap*s.Dist(c) }
	d.CapLimit = 0.6 * tc.Buf.MaxCap
	dual, err := cluster.DualLevel(sinks, d)
	if err != nil {
		return nil, err
	}
	step("cluster")
	tree, err := dme.HierarchicalRoute(root, sinks, dual, tc, dme.HierOptions{MaxTrunkEdge: 40})
	if err != nil {
		return nil, err
	}
	step("dme")

	cfg := insert.DefaultConfig(tc)
	cfg.MaxPerSide = opt.MaxPerSide
	cfg.Workers = opt.Workers
	switch {
	case opt.Mode == core.SingleSide:
		cfg.ModeOf = func(int, int) insert.Mode { return insert.ModeIntra }
	case opt.FanoutThreshold > 0:
		th := opt.FanoutThreshold
		cfg.ModeOf = func(_, fanout int) insert.Mode {
			if fanout >= th {
				return insert.ModeFull
			}
			return insert.ModeIntra
		}
	}
	dp, err := insert.RunContext(ctx, tree, cfg)
	if err != nil {
		return nil, err
	}
	step("insert")

	rp := refine.DefaultParams()
	rp.Workers = opt.Workers
	rr, err := refine.RefineContext(ctx, tree, tc, rp)
	if err != nil {
		return nil, err
	}
	step("refine")

	// Like core.Synthesize, take the final metrics from refinement's exit
	// evaluation of this very tree rather than evaluating it again.
	m := rr.After
	step("eval")

	out.Tree, out.Dual, out.DP, out.Refine, out.Metrics = tree, dual, dp, rr, &m
	if len(opt.Corners) > 0 {
		rep, err := corner.Evaluate(ctx, tree, tc, opt.Corners, corner.Options{Workers: opt.Workers})
		if err != nil {
			return nil, err
		}
		out.Corners = rep
		step("corner")
	}
	return out, nil
}
