package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"

	"dscts/internal/core"
	"dscts/internal/ctree"
	"dscts/internal/eval"
	"dscts/internal/tech"
)

// signoff is what the benchmark recomputes from an emitted tree and the
// technology alone, sharing no bookkeeping with the optimizer beyond the
// lowering rules of eval.DownstreamCap.
type signoff struct {
	violations int     // stage drivers loaded beyond Buf.MaxCap
	worstFF    float64 // the largest stage load, fF
}

// checkTree verifies that a tree is structurally valid and reaches each of
// the n sinks exactly once, and measures its stage loads.
func checkTree(t *ctree.Tree, n int, tc *tech.Tech) (signoff, error) {
	if t == nil {
		return signoff{}, fmt.Errorf("no tree")
	}
	if err := t.Validate(); err != nil {
		return signoff{}, err
	}
	seen := make([]bool, n)
	reached := 0
	for id := range t.Nodes {
		nd := &t.Nodes[id]
		if nd.Kind != ctree.KindSink {
			continue
		}
		if nd.SinkIdx < 0 || nd.SinkIdx >= n {
			return signoff{}, fmt.Errorf("sink node %d has index %d outside [0,%d)", id, nd.SinkIdx, n)
		}
		if seen[nd.SinkIdx] {
			return signoff{}, fmt.Errorf("sink %d reached twice", nd.SinkIdx)
		}
		seen[nd.SinkIdx] = true
		reached++
	}
	if reached != n {
		return signoff{}, fmt.Errorf("tree reaches %d of %d sinks", reached, n)
	}
	return stageLoads(t, tc), nil
}

// stageLoads measures the load of every stage driver: the root driver and
// node-level buffers drive eval.DownstreamCap; a mid-edge buffer drives the
// lower half of its edge's wire plus the load below the edge.
func stageLoads(t *ctree.Tree, tc *tech.Tech) signoff {
	var s signoff
	note := func(load float64) {
		if load > tc.Buf.MaxCap*(1+1e-9) {
			s.violations++
		}
		s.worstFF = math.Max(s.worstFF, load)
	}
	below := func(id int) float64 {
		nd := &t.Nodes[id]
		switch {
		case nd.BufferAtNode:
			return tc.Buf.InputCap
		case nd.Kind == ctree.KindSink:
			return tc.SinkCap
		}
		return eval.DownstreamCap(t, id, tc)
	}
	note(eval.DownstreamCap(t, 0, tc))
	for id := range t.Nodes {
		nd := &t.Nodes[id]
		if id != 0 && nd.BufferAtNode {
			note(eval.DownstreamCap(t, id, tc))
		}
		if id != 0 && nd.Wiring.BufMid {
			note(tc.Front().UnitCap*t.EdgeLen(id)/2 + below(id))
		}
	}
	return s
}

// qor accumulates the paper's Table III axes over a workload's QoR job list.
type qor struct {
	n                   int
	latency, skew, wlUM float64
	buffers, ntsvs      int
	worstFF             float64
	violations          int
}

func (q *qor) add(m *eval.Metrics, s signoff) {
	q.n++
	q.latency += m.Latency
	q.skew += m.Skew
	q.wlUM += m.WL
	q.buffers += m.Buffers
	q.ntsvs += m.NTSVs
	q.worstFF = math.Max(q.worstFF, s.worstFF)
	q.violations += s.violations
}

// report fills the qor.* metrics, each a mean per tree over the list, and
// the total count of stage drivers beyond MaxCap.
func (q *qor) report(r *run) {
	if q.n == 0 {
		r.problem("empty QoR job list")
		return
	}
	n := float64(q.n)
	r.m["qor.latency_ps"] = q.latency / n
	r.m["qor.skew_ps"] = q.skew / n
	r.m["qor.buffers"] = float64(q.buffers) / n
	r.m["qor.ntsvs"] = float64(q.ntsvs) / n
	r.m["qor.wirelength_mm"] = q.wlUM / 1e3 / n
	r.m["qor.max_stage_load_ff"] = q.worstFF
	r.m["signoff.maxcap_violations"] = float64(q.violations)
	fmt.Printf("# QoR over %d jobs: %d buffers beyond MaxCap, worst stage %.2f fF\n", q.n, q.violations, q.worstFF)
}

// golden is one pinned design from testdata/golden.
type golden struct {
	Design    string  `json:"design"`
	Sinks     int     `json:"sinks"`
	LatencyPS float64 `json:"latency_ps"`
	SkewPS    float64 `json:"skew_ps"`
	WLum      float64 `json:"wirelength_um"`
	Buffers   int     `json:"buffers"`
	NTSVs     int     `json:"ntsvs"`
}

// goldenRelTol matches the repository's golden suite.
const goldenRelTol = 1e-6

// checkGolden compares a seed-1, default-option outcome against the pinned
// metrics in testdata/golden (read relative to the repository root).
func checkGolden(id string, sinks int, m *eval.Metrics) error {
	b, err := os.ReadFile(filepath.Join("testdata", "golden", id+".json"))
	if err != nil {
		return err
	}
	var g golden
	if err := json.Unmarshal(b, &g); err != nil {
		return fmt.Errorf("%s: %w", id, err)
	}
	near := func(a, b float64) bool {
		return a == b || math.Abs(a-b) <= goldenRelTol*math.Max(math.Abs(a), math.Abs(b))
	}
	if g.Sinks != sinks || g.Buffers != m.Buffers || g.NTSVs != m.NTSVs ||
		!near(g.LatencyPS, m.Latency) || !near(g.SkewPS, m.Skew) || !near(g.WLum, m.WL) {
		return fmt.Errorf("%s drifted from golden: got lat %v skew %v wl %v buf %d ntsv %d sinks %d, want %+v",
			id, m.Latency, m.Skew, m.WL, m.Buffers, m.NTSVs, sinks, g)
	}
	return nil
}

// sameOutcome reports whether two outcomes carry bit-identical metrics,
// per-sink delays and corner reports.
func sameOutcome(a, b *core.Outcome) error {
	if !reflect.DeepEqual(a.Metrics, b.Metrics) {
		return fmt.Errorf("metrics differ: %v/%v/%d/%d/%v vs %v/%v/%d/%d/%v",
			a.Metrics.Latency, a.Metrics.Skew, a.Metrics.Buffers, a.Metrics.NTSVs, a.Metrics.WL,
			b.Metrics.Latency, b.Metrics.Skew, b.Metrics.Buffers, b.Metrics.NTSVs, b.Metrics.WL)
	}
	if !reflect.DeepEqual(a.Corners, b.Corners) {
		return fmt.Errorf("corner reports differ")
	}
	return nil
}
