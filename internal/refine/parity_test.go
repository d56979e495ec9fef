package refine_test

import (
	"math"
	"testing"

	"dscts/internal/bench"
	"dscts/internal/core"
	"dscts/internal/ctree"
	"dscts/internal/eval"
	"dscts/internal/refine"
	"dscts/internal/tech"
)

// TestRefineMatchesFullPassOracle runs refinement on the post-insertion
// trees of C1..C5 under the four table2-mono variants, with one worker and
// with two, once with the incremental trials and once with every trial and
// ranking refresh done by the full pass. The reports and the end-point
// buffers placed must be identical, and a run that triggers but accepts
// nothing must report After equal to Before and to a fresh evaluation.
func TestRefineMatchesFullPassOracle(t *testing.T) {
	tc := tech.ASAP7()
	variants := []struct {
		name string
		opt  core.Options
	}{
		{"full", core.Options{}},
		{"fo150", core.Options{FanoutThreshold: 150}},
		{"fo600", core.Options{FanoutThreshold: 600}},
		{"single", core.Options{Mode: core.SingleSide}},
	}
	attempted, idle := 0, 0
	for _, id := range []string{"C1", "C2", "C3", "C4", "C5"} {
		for _, v := range variants {
			t.Run(id+"/"+v.name, func(t *testing.T) {
				if testing.Short() && id != "C4" && id != "C5" {
					t.Skip("large design skipped with -short")
				}
				base := insertedTree(t, tc, id, v.opt)
				for _, workers := range []int{1, 2} {
					p := refine.DefaultParams()
					p.Workers = workers
					got, want := base.Clone(), base.Clone()
					grep, err := refine.Refine(got, tc, p)
					if err != nil {
						t.Fatal(err)
					}
					restore := refine.UseFullPasses()
					wrep, err := refine.Refine(want, tc, p)
					restore()
					if err != nil {
						t.Fatal(err)
					}
					sameReport(t, workers, grep, wrep)
					for n := range got.Nodes {
						if got.Nodes[n].BufferAtNode != want.Nodes[n].BufferAtNode {
							t.Fatalf("workers %d: node %d buffered %v, oracle %v",
								workers, n, got.Nodes[n].BufferAtNode, want.Nodes[n].BufferAtNode)
						}
					}
					attempted += grep.Attempted
					if grep.Triggered && grep.Inserted == 0 {
						// A triggered run that accepted nothing reports
						// the untouched tree: After must be what a fresh
						// evaluation of it gives, which is Before.
						fresh, err := eval.New(tc, eval.Elmore).Evaluate(got)
						if err != nil {
							t.Fatal(err)
						}
						sameMetrics(t, "after (nothing inserted) vs fresh", &grep.After, fresh)
						sameMetrics(t, "after (nothing inserted) vs before", &grep.After, &grep.Before)
						idle++
					}
				}
			})
		}
	}
	if !testing.Short() && attempted == 0 {
		t.Fatal("no variant attempted a refinement trial")
	}
	if !testing.Short() && idle == 0 {
		t.Fatal("no variant triggered refinement and accepted nothing")
	}
}

func sameReport(t *testing.T, workers int, got, want *refine.Report) {
	t.Helper()
	if got.Triggered != want.Triggered || got.Attempted != want.Attempted || got.Inserted != want.Inserted {
		t.Fatalf("workers %d: triggered/attempted/inserted %v/%d/%d, oracle %v/%d/%d", workers,
			got.Triggered, got.Attempted, got.Inserted, want.Triggered, want.Attempted, want.Inserted)
	}
	sameMetrics(t, "before", &got.Before, &want.Before)
	sameMetrics(t, "after", &got.After, &want.After)
}

func sameMetrics(t *testing.T, what string, got, want *eval.Metrics) {
	t.Helper()
	bits := math.Float64bits
	if bits(got.Latency) != bits(want.Latency) || bits(got.Skew) != bits(want.Skew) ||
		bits(got.WL) != bits(want.WL) || bits(got.MaxSlew) != bits(want.MaxSlew) ||
		got.Buffers != want.Buffers || got.NTSVs != want.NTSVs || len(got.SinkDelays) != len(want.SinkDelays) {
		t.Fatalf("%s: %+v, oracle %+v", what, *got, *want)
	}
	for k, d := range want.SinkDelays {
		if g, ok := got.SinkDelays[k]; !ok || bits(g) != bits(d) {
			t.Fatalf("%s: sink %d delay %v, oracle %v", what, k, g, d)
		}
	}
}

// insertedTree synthesizes design id (seed 1) up to buffer and nTSV
// insertion, leaving out refinement.
func insertedTree(t *testing.T, tc *tech.Tech, id string, opt core.Options) *ctree.Tree {
	t.Helper()
	d, err := bench.ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	p, err := bench.Generate(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	opt.SkipRefine, opt.Workers = true, 1
	out, err := core.Synthesize(p.Root, p.Sinks, tc, opt)
	if err != nil {
		t.Fatal(err)
	}
	return out.Tree
}
