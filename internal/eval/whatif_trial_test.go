package eval

import (
	"math"
	"testing"

	"dscts/internal/ctree"
	"dscts/internal/geom"
	"dscts/internal/tech"
)

// checkTrials requires Trial to equal Eval bit for bit for every slot of w
// in its current committed state, and the baseline (Rebase's latency and
// skew, SinkDelays) to equal Eval's base pass. It returns how many
// uncommitted slots took the root-reaching fallback. w must be rebased.
func checkTrials(tb testing.TB, w *WhatIf, label string) (trials, fallbacks int) {
	tb.Helper()
	sc, ref := w.NewScratch(), w.NewScratch()
	defer w.PutScratch(sc)
	defer w.PutScratch(ref)
	nSinks := 0
	for _, si := range w.sinkIdx {
		nSinks = max(nSinks, int(si)+1)
	}
	want, got := make([]float64, nSinks), make([]float64, nSinks)
	lat, skew := w.Eval(-1, ref, want)
	if !sameBits(lat, w.hi) || !sameBits(skew, w.hi-w.lo) {
		tb.Fatalf("%s: baseline (%v, %v), full pass (%v, %v)", label, w.hi, w.hi-w.lo, lat, skew)
	}
	w.SinkDelays(got)
	for _, si := range w.sinkIdx {
		if !sameBits(got[si], want[si]) {
			tb.Fatalf("%s: sink %d baseline delay %v, full pass %v", label, si, got[si], want[si])
		}
	}
	for id, slot := range w.slotOf {
		if slot < 0 {
			continue
		}
		tl, ts := w.Trial(slot, sc)
		fl, fs := w.Eval(slot, ref, nil)
		if !sameBits(tl, fl) || !sameBits(ts, fs) {
			tb.Fatalf("%s: trial at tree node %d (slot %d): incremental (%v, %v), full pass (%v, %v)",
				label, id, slot, tl, ts, fl, fs)
		}
		if !w.on[slot] {
			trials++
			if !w.climb(slot, sc) {
				fallbacks++
			}
		}
	}
	return trials, fallbacks
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// rootReachTree hangs one cluster under a buffered Steiner node and two
// straight off the unbuffered root driver, so its trials take both the
// incremental path and the root-reaching fallback.
func rootReachTree() *ctree.Tree {
	tr := ctree.New(geom.Pt(0, 0))
	st := tr.Add(0, ctree.KindSteiner, geom.Pt(40, 0))
	tr.Nodes[st].BufferAtNode = true
	a := tr.AddCentroid(st, geom.Pt(80, 30), 0)
	b := tr.AddCentroid(0, geom.Pt(-60, 10), 1)
	c := tr.AddCentroid(0, geom.Pt(10, -90), 2)
	s := 0
	for i, cid := range []int{a, b, c} {
		at := tr.Nodes[cid].Pos
		for k := 0; k < 3+2*i; k++ {
			tr.AddSink(cid, geom.Pt(at.X+float64(k), at.Y+1), s)
			s++
		}
	}
	return tr
}

// TestWhatIfTrialFallback pins the fallback: a slot whose path reaches the
// root driver unbuffered is evaluated by the full pass, the others
// incrementally, and both agree with Eval bit for bit before and after
// commits.
func TestWhatIfTrialFallback(t *testing.T) {
	tc := tech.ASAP7()
	tr := rootReachTree()
	w := NewWhatIf(tr, tc)
	w.Rebase()
	trials, fallbacks := checkTrials(t, w, "base")
	if trials != 3 || fallbacks != 2 {
		t.Fatalf("base: %d trials, %d fallbacks; want 3 and 2", trials, fallbacks)
	}
	// A commit changes no other slot's path to the root, so the fallbacks
	// fall only as the unbuffered clusters are committed.
	for i, cid := range tr.Centroids() {
		w.Commit(w.SlotOf(cid))
		if _, fb := checkTrials(t, w, "commit"); fb != 2-i {
			t.Fatalf("after %d commits: %d fallbacks, want %d", i+1, fb, 2-i)
		}
	}
}

// TestWhatIfTrialLayout pins the layout Trial relies on: the lowering
// appends in preorder (every parent before its children, each subtree the
// contiguous range [v, end[v])), so a node's children are found by
// stepping from subtree end to subtree end, and the sink records ascend.
func TestWhatIfTrialLayout(t *testing.T) {
	tc := tech.ASAP7()
	trees := map[string]*ctree.Tree{
		"refinery":   refineryTree(),
		"root-reach": rootReachTree(),
		"fuzz-seed":  fuzzTree([]byte{1, 0x42, 7, 0x1b, 2, 0x86, 9, 0x2c, 4, 0xe1, 5, 0x53, 0, 0x3a, 3, 0x99, 6}),
	}
	decorated := refineryTree()
	decorated.Nodes[0].BufferAtNode = true
	decorated.Nodes[1].Wiring = ctree.EdgeWiring{WireSide: ctree.Back, TSVUp: true, TSVDown: true}
	decorated.Nodes[2].Wiring = ctree.EdgeWiring{BufMid: true}
	decorated.Nodes[3].BufferAtNode = true
	trees["decorated"] = decorated
	for name, tr := range trees {
		w := NewWhatIf(tr, tc)
		w.Rebase()
		n := int32(len(w.parent))
		under := func(i, v int32) bool { // i is in v's subtree
			for ; i > v; i = w.parent[i] {
			}
			return i == v
		}
		for v := int32(0); v < n; v++ {
			if v > 0 && w.parent[v] >= v {
				t.Fatalf("%s: node %d has parent %d", name, v, w.parent[v])
			}
			if w.end[v] <= v || w.end[v] > n {
				t.Fatalf("%s: end[%d] = %d", name, v, w.end[v])
			}
			for i := int32(0); i < n; i++ {
				if in := i >= v && i < w.end[v]; in != under(i, v) {
					t.Fatalf("%s: node %d in [%d, %d) is %v, under %d is %v", name, i, v, w.end[v], in, v, !in)
				}
			}
			var kids, want []int32
			for k := v + 1; k < w.end[v]; k = w.end[k] {
				kids = append(kids, k)
			}
			for i := v + 1; i < n; i++ {
				if w.parent[i] == v {
					want = append(want, i)
				}
			}
			if len(kids) != len(want) {
				t.Fatalf("%s: children of %d are %v, want %v", name, v, kids, want)
			}
			for k := range kids {
				if kids[k] != want[k] {
					t.Fatalf("%s: children of %d are %v, want %v", name, v, kids, want)
				}
			}
		}
		for k := 1; k < len(w.sinkNet); k++ {
			if w.sinkNet[k] <= w.sinkNet[k-1] {
				t.Fatalf("%s: sink records not ascending: %v", name, w.sinkNet)
			}
		}
		// SlotOf names a slot node, or -1.
		for _, cid := range tr.Centroids() {
			if s := w.SlotOf(cid); s >= 0 && w.kind[s] != wiSlot {
				t.Fatalf("%s: SlotOf(%d) = %d is not a slot", name, cid, s)
			}
		}
	}
}

// TestWhatIfTrialAllocs requires trials (incremental and fallback) and
// commits to allocate nothing once their scratch has grown.
func TestWhatIfTrialAllocs(t *testing.T) {
	tc := tech.ASAP7()
	for _, tr := range []*ctree.Tree{rootReachTree(), refineryTree()} {
		w := NewWhatIf(tr, tc)
		w.Rebase()
		sc := w.NewScratch()
		var slots []int32
		for _, cid := range tr.Centroids() {
			slots = append(slots, w.SlotOf(cid))
		}
		trialAll := func() {
			for _, s := range slots {
				w.Trial(s, sc)
			}
		}
		trialAll()
		if a := testing.AllocsPerRun(50, trialAll); a != 0 {
			t.Fatalf("trials allocate %v per run", a)
		}
		w.Commit(slots[0])
		if a := testing.AllocsPerRun(50, func() { w.Commit(slots[0]) }); a != 0 {
			t.Fatalf("commit allocates %v per run", a)
		}
	}
}

// fuzzTree grows a small tree from b. The first byte buffers the root;
// every following pair (c, e) adds one node under an earlier non-sink node
// chosen by e: c's low two bits pick sink, centroid or Steiner, the next
// ones the edge wiring (front, mid-edge buffer, back side with either
// nTSV) and whether the node carries a buffer.
func fuzzTree(b []byte) *ctree.Tree {
	tr := ctree.New(geom.Pt(0, 0))
	if len(b) == 0 {
		return tr
	}
	tr.Nodes[0].BufferAtNode = b[0]&1 == 1
	open := []int{0}
	sinks := 0
	for i := 1; i+1 < len(b) && i < 160; i += 2 {
		c, e := b[i], b[i+1]
		par := open[int(e)%len(open)]
		at := tr.Nodes[par].Pos
		pos := geom.Pt(at.X+float64(int(e)%23)-7, at.Y+float64(int(c)%19)-4)
		var id int
		switch c & 3 {
		case 0, 1:
			id = tr.AddSink(par, pos, sinks)
			sinks++
		case 2:
			id = tr.AddCentroid(par, pos, i)
			open = append(open, id)
		default:
			id = tr.Add(par, ctree.KindSteiner, pos)
			open = append(open, id)
		}
		n := &tr.Nodes[id]
		switch (c >> 2) & 3 {
		case 1:
			n.Wiring = ctree.EdgeWiring{BufMid: true}
		case 2, 3:
			n.Wiring = ctree.EdgeWiring{WireSide: ctree.Back, TSVUp: c&16 != 0, TSVDown: c&32 != 0}
		}
		n.BufferAtNode = n.Kind != ctree.KindSink && c&64 != 0
	}
	return tr
}

// FuzzWhatIfTrial checks Trial against Eval bit for bit on small random
// trees, at the base state and after each commit of a random sequence.
func FuzzWhatIfTrial(f *testing.F) {
	f.Add([]byte{1, 2, 0, 0, 1, 0, 2, 3, 0, 2, 1, 4, 2}, []byte{0, 1})
	f.Add([]byte{0, 3, 0, 2, 1, 0, 2, 0, 4, 2, 0, 1, 3, 6, 2, 0, 3, 0, 5}, []byte{2, 0, 1})
	f.Add([]byte{1, 0x42, 7, 0x1b, 2, 0x86, 9, 0x2c, 4, 0xe1, 5, 0x53, 0, 0x3a, 3, 0x99, 6}, []byte{3, 1, 4, 1})
	f.Add([]byte{0, 0x0e, 0, 0x32, 1, 0x22, 1, 0x02, 2, 0x6e, 2, 0x10, 3, 0x01, 4, 0x00, 5}, []byte{})
	tc := tech.ASAP7()
	f.Fuzz(func(t *testing.T, treeBytes, commits []byte) {
		tr := fuzzTree(treeBytes)
		w := NewWhatIf(tr, tc)
		w.Rebase()
		checkTrials(t, w, "base")
		var slots []int32
		for _, s := range w.slotOf {
			if s >= 0 {
				slots = append(slots, s)
			}
		}
		for k, c := range commits {
			if len(slots) == 0 || k == 4 {
				break
			}
			w.Commit(slots[int(c)%len(slots)])
			checkTrials(t, w, "commit")
		}
	})
}
