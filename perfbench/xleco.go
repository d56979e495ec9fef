package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"dscts/internal/bench"
	"dscts/internal/core"
	"dscts/internal/eco"
	"dscts/internal/geom"
	"dscts/internal/partition"
	"dscts/internal/tech"
)

const (
	xlSinks    = 100_000
	xlMaxSinks = 2000
	// xlSeed fixes the placement; the run's seed draws the delta chain.
	xlSeed = 1
	// xlCycle is the job pattern: a full re-synthesis of the current
	// placement (F), then nine ECO deltas — seven localized windows that
	// move (M), add (A) or remove (R) sinks, and two scattered moves (S).
	// Adds and removes balance, so the sink count holds steady.
	xlCycle = "FMASMRMARS"
	// xlQoRJobs is the length of the QoR job list: the first four cycles.
	// The skew of a tree after a delta depends on where the delta fell;
	// over two cycles the list's mean skew moved by 14% between seeds.
	xlQoRJobs = 4 * len(xlCycle)
)

// runXLECO is the xl-eco workload: a closed loop with one caller over a
// 100k-sink GenerateXL placement partitioned at 2000 sinks per region. It
// chains seeded SynthesizeECO deltas with RetainECO — localized windows of
// 0.5% of the sinks moved, added or removed, and scattered moves of as
// many sinks across the die — and every tenth job re-runs the full
// synthesis of the current placement. The first four cycles are the QoR job
// list.
func runXLECO(r *run) error {
	tc := tech.ASAP7()
	var setups, gens []float64
	var place *bench.Placement
	var prev *core.Outcome
	for rep := 0; rep < setupReps; rep++ {
		prev = nil // let the previous repetition's trees go first
		settle()
		t0, c0 := time.Now(), cpuNow()
		p, err := bench.GenerateXL(xlSinks, xlSeed)
		if err != nil {
			return err
		}
		gens = append(gens, ms(time.Since(t0)))
		out, err := core.Synthesize(p.Root, p.Sinks, tc, xlOptions(r, p))
		if err != nil {
			return fmt.Errorf("base synthesis: %w", err)
		}
		setups = append(setups, (cpuNow() - c0).Seconds())
		place, prev = p, out
	}
	r.m["setup_s"] = quantile(setups, 0.5)
	r.m["bench.generate_ms"] = quantile(gens, 0.5)

	rng := rand.New(rand.NewSource(r.seed))
	var loop closedLoop
	var q qor
	x := &xlStats{}
	tracedFull, tracedECO := false, false
	settle()
	mem := startMem()
	deadline := r.deadline(time.Now())
	// Whole cycles only, so every run holds the same mix of job kinds.
	for n := 0; n%len(xlCycle) != 0 || n < xlQoRJobs || time.Now().Before(deadline); n++ {
		cycle, kind := n/len(xlCycle), xlCycle[n%len(xlCycle)]
		tracing := r.tr != nil && cycle%2 == 1
		req := fmt.Sprintf("xl/%d/%c", n, kind)
		sinks := prev.Retained.Sinks
		var d eco.Delta
		if kind != 'F' {
			d = xlDelta(rng, sinks, place.Die, kind)
			if tracing {
				x.probe(r.tr, req, prev, d)
			}
		}
		r.attempted++
		var tj *xlTrace
		opt := xlOptions(r, place)
		if tracing {
			tj = newXLTrace(r.tr, req, r.workers)
			tj.install(&opt, tc)
		}
		t0, c0 := time.Now(), cpuNow()
		var out *core.Outcome
		var err error
		if kind == 'F' {
			out, err = core.Synthesize(place.Root, sinks, tc, opt)
		} else {
			out, err = core.SynthesizeECO(prev, d, opt)
		}
		took, cpu := time.Since(t0), cpuNow()-c0
		if tj != nil {
			tj.tr.close(tj.job, t0.Add(took))
		}
		if err != nil {
			r.failed++
			fmt.Printf("# job %s failed: %v\n", req, err)
			continue
		}
		loop.add(string(kind), took, cpu, tracing)
		so, cerr := checkTree(out.Tree, len(out.Retained.Sinks), tc)
		if cerr != nil {
			r.problem("%s: %v", req, cerr)
		}
		if n < xlQoRJobs {
			q.add(out.Metrics, so)
		}
		if n == 1 {
			one := xlOptions(r, place)
			one.Workers, one.RetainECO = 1, false
			if err := sameECO(out, prev, d, one); err != nil {
				r.problem("%s: Workers=1 differs from Workers=%d: %v", req, r.workers, err)
			}
		}
		if tracing {
			x.add(out, tj, took, kind == 'F')
			// Traced runs must reproduce untraced results: check the first
			// traced job of each kind against a plain call.
			if first := (kind == 'F' && !tracedFull) || (kind != 'F' && !tracedECO); first {
				plain := xlOptions(r, place)
				plain.RetainECO = false
				if kind == 'F' {
					tracedFull = true
					err = sameAsPlain(out, &bench.Placement{Root: place.Root, Sinks: sinks}, tc, plain)
				} else {
					tracedECO = true
					err = sameECO(out, prev, d, plain)
				}
				if err != nil {
					r.problem("%s: traced result differs from untraced: %v", req, err)
				}
			}
		}
		prev = out
	}
	mem.report(r, len(loop.cpu))
	loop.report(r)
	q.report(r)
	r.m["peak_rss_mb"] = peakRSSMB()
	if r.tr != nil {
		x.report(r)
		r.m["core.self_ms"] = r.reportCoverage() / float64(max(x.jobs, 1))
		r.zeroUnset()
	}
	return nil
}

// sameECO re-runs a delta with opt and compares the result with out.
func sameECO(out, prev *core.Outcome, d eco.Delta, opt core.Options) error {
	ref, err := core.SynthesizeECO(prev, d, opt)
	if err != nil {
		return err
	}
	return sameOutcome(out, ref)
}

func xlOptions(r *run, p *bench.Placement) core.Options {
	return core.Options{
		Workers:   r.workers,
		Partition: partition.Options{MaxSinks: xlMaxSinks, Macros: p.Macros},
		RetainECO: true,
	}
}

// xlDelta draws one ECO delta of the given kind against the current
// placement. A localized delta takes the 0.5% of sinks nearest a random
// sink and moves them (M), adds as many next to them (A) or removes them
// (R); a scattered one (S) moves as many random sinks.
func xlDelta(rng *rand.Rand, sinks []geom.Point, die geom.BBox, kind byte) eco.Delta {
	k := len(sinks) / 200
	jitter := func(p geom.Point) geom.Point {
		return geom.Pt(
			math.Min(math.Max(p.X+16*rng.Float64()-8, die.MinX), die.MaxX),
			math.Min(math.Max(p.Y+16*rng.Float64()-8, die.MinY), die.MaxY))
	}
	var d eco.Delta
	if kind == 'S' {
		for _, i := range rng.Perm(len(sinks))[:k] {
			d.Move = append(d.Move, eco.Move{Sink: i, To: jitter(sinks[i])})
		}
		return d
	}
	c := sinks[rng.Intn(len(sinks))]
	idx := make([]int, len(sinks))
	dist := make([]float64, len(sinks))
	for i, s := range sinks {
		idx[i] = i
		dist[i] = (s.X-c.X)*(s.X-c.X) + (s.Y-c.Y)*(s.Y-c.Y)
	}
	sort.Slice(idx, func(a, b int) bool { return dist[idx[a]] < dist[idx[b]] })
	window := idx[:k]
	switch kind {
	case 'M':
		for _, i := range window {
			d.Move = append(d.Move, eco.Move{Sink: i, To: jitter(sinks[i])})
		}
	case 'A':
		for _, i := range window {
			d.Add = append(d.Add, jitter(sinks[i]))
		}
	default:
		d.Remove = append([]int(nil), window...)
		sort.Ints(d.Remove)
	}
	return d
}

// xlTrace records one traced partitioned job: the flow's phase events
// become child spans of the job span, and every region runs through a
// RegionExec wrapper that bounds region concurrency to the worker count
// and records the region's wait and run.
type xlTrace struct {
	tr  *tracer
	req string
	sem chan struct{}

	mu        sync.Mutex
	job       int
	open      map[core.Phase]int
	phaseAt   map[core.Phase]time.Time
	firstExec time.Time
	regions   []float64 // region run times, ms
	waits     []float64 // region wait times, ms
}

func newXLTrace(tr *tracer, req string, workers int) *xlTrace {
	return &xlTrace{
		tr: tr, req: req, sem: make(chan struct{}, workers),
		job:  tr.open("job", -1, req, time.Now()),
		open: map[core.Phase]int{}, phaseAt: map[core.Phase]time.Time{},
	}
}

func (t *xlTrace) install(opt *core.Options, tc *tech.Tech) {
	opt.Progress = t.progress
	ropt := *opt
	opt.RegionExec = func(ctx context.Context, w core.RegionWork) (*core.RegionOut, error) {
		called := time.Now()
		t.mu.Lock()
		if t.firstExec.IsZero() || called.Before(t.firstExec) {
			t.firstExec = called
		}
		parent := t.open[core.PhasePartition]
		t.mu.Unlock()
		select {
		case t.sem <- struct{}{}:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		defer func() { <-t.sem }()
		started := time.Now()
		// One worker per region, as the untraced pipeline gives each
		// region when there are more regions than workers.
		out, err := core.RunRegion(ctx, w, tc, ropt, 1)
		ended := time.Now()
		t.tr.add("region", parent, t.req, 1+w.ID%cap(t.sem), started, ended)
		t.mu.Lock()
		t.regions = append(t.regions, ms(ended.Sub(started)))
		t.waits = append(t.waits, ms(started.Sub(called)))
		t.mu.Unlock()
		return out, err
	}
}

// progress turns the flow's start/done events into spans; per-point events
// (regions, corners, ECO scopes) carry no interval and are skipped.
func (t *xlTrace) progress(p core.Progress) {
	if p.Total > 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if !p.Done {
		t.phaseAt[p.Phase] = now
		t.open[p.Phase] = t.tr.open(string(p.Phase), t.job, t.req, now)
		return
	}
	t.tr.close(t.open[p.Phase], now)
}

// splitMS is the time from the partition phase's start to the first region
// handed to the executor: partition.Split plus the region bookkeeping.
func (t *xlTrace) splitMS() (float64, bool) {
	at, ok := t.phaseAt[core.PhasePartition]
	if !ok || t.firstExec.IsZero() {
		return 0, false
	}
	return ms(t.firstExec.Sub(at)), true
}

// xlStats accumulates the traced per-layer counts of xl-eco.
type xlStats struct {
	jobs, full, ecos                   int
	split, regions, regionMax, waitSum float64
	regionMS                           []float64
	waitN                              int
	insertMS, refineMS                 float64
	solutions, nodes                   float64
	dirty, reused, fallbacks, overhead float64
	applyMS, planMS                    float64
}

// probe times eco.Apply and eco.PlanRegions on the job's own inputs, as
// spans outside the job: the engine calls both inside SynthesizeECO, where
// no public hook separates them.
func (x *xlStats) probe(tr *tracer, req string, prev *core.Outcome, d eco.Delta) {
	st := prev.Retained
	t0 := time.Now()
	newSinks, oldToNew := eco.Apply(st.Sinks, d)
	t1 := time.Now()
	_, err := eco.PlanRegions(st.Regions, st.Sinks, oldToNew, newSinks, d, st.Opt.Partition)
	t2 := time.Now()
	if err != nil {
		return
	}
	tr.add("probe.eco.apply", -1, req, 0, t0, t1)
	tr.add("probe.eco.plan", -1, req, 0, t1, t2)
	x.applyMS += ms(t1.Sub(t0))
	x.planMS += ms(t2.Sub(t1))
}

func (x *xlStats) add(out *core.Outcome, tj *xlTrace, took time.Duration, full bool) {
	x.jobs++
	x.insertMS += ms(out.InsertTime)
	x.refineMS += ms(out.RefineTime)
	if out.DP != nil {
		x.solutions += float64(out.DP.Solutions)
		x.nodes += float64(out.DP.Nodes)
	}
	if full {
		x.full++
		if s, ok := tj.splitMS(); ok {
			x.split += s
		}
		x.regions += float64(len(out.Regions))
		x.regionMS = append(x.regionMS, tj.regions...)
		mx := 0.0
		for _, v := range tj.regions {
			mx = math.Max(mx, v)
		}
		x.regionMax += mx
		for _, w := range tj.waits {
			x.waitSum += w
		}
		x.waitN += len(tj.waits)
		return
	}
	x.ecos++
	if e := out.ECO; e != nil {
		x.dirty += float64(e.DirtyScopes) / float64(max(e.TotalScopes, 1))
		x.reused += float64(e.ReusedSinks) / float64(max(len(out.Retained.Sinks), 1))
		if e.FullResynthesis {
			x.fallbacks++
		}
	}
	x.overhead += ms(took - out.ECOTime - out.StitchTime)
}

func (x *xlStats) report(r *run) {
	per := func(v float64, n int) float64 { return v / float64(max(n, 1)) }
	r.m["insert.busy_ms"] = per(x.insertMS, x.jobs)
	r.m["refine.busy_ms"] = per(x.refineMS, x.jobs)
	r.m["insert.solutions"] = per(x.solutions, x.jobs)
	r.m["insert.nodes"] = per(x.nodes, x.jobs)
	r.m["eval.busy_ms"] = per(r.tr.sum(string(core.PhaseEval)), x.jobs)
	r.m["eval.calls"] = per(float64(r.tr.count(string(core.PhaseEval))), x.jobs)
	r.m["corner.busy_ms"] = per(r.tr.sum(string(core.PhaseCorners)), x.jobs)
	r.m["partition.split_ms"] = per(x.split, x.full)
	r.m["partition.regions"] = per(x.regions, x.full)
	if len(x.regionMS) > 0 {
		r.m["core.region_ms.p50"] = quantile(x.regionMS, 0.5)
	}
	r.m["core.region_ms.max"] = per(x.regionMax, x.full)
	r.m["core.region_wait_ms"] = per(x.waitSum, x.waitN)
	r.m["core.stitch_ms"] = per(r.tr.sum(string(core.PhaseStitch)), x.jobs)
	r.m["eco.apply_ms"] = per(x.applyMS, x.ecos)
	r.m["eco.plan_ms"] = per(x.planMS, x.ecos)
	r.m["eco.resynth_ms"] = per(r.tr.sum(string(core.PhaseECO)), x.ecos)
	r.m["eco.dirty_ratio"] = per(x.dirty, x.ecos)
	r.m["eco.reused_sinks_ratio"] = per(x.reused, x.ecos)
	r.m["eco.full_fallbacks"] = x.fallbacks
	r.m["eco.overhead_ms"] = per(x.overhead, x.ecos)
}
