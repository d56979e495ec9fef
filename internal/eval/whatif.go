package eval

import (
	"fmt"
	"math"
	"slices"

	"dscts/internal/arena"
	"dscts/internal/ctree"
	"dscts/internal/tech"
)

// WhatIf answers "what would latency and skew be if an end-point buffer
// were added at this centroid?" without rebuilding the RC network or
// allocating per query. It exists for the skew-refinement loop, whose
// accept/reject trials dominated the end-to-end synthesis runtime when
// each trial re-ran a full Evaluate (tree validation, network
// construction and a sink-delay map per attempt).
//
// The network is lowered once, with a zero-impedance pass-through "slot"
// node at every centroid that could receive an end-point buffer. Eval is
// the full O(n) pass over the network with one extra slot treated as a
// buffer; a commit flips the slot permanently.
//
// Trial answers the same question in O(changed subtree). The lowering
// appends nodes in tree preorder, so the subtree of network node v is the
// index range [v, end[v]) and the sink records are ascending. Turning slot
// s into a buffer changes the loads on the path from s up to A, its nearest
// active ancestor (a fixed buffer or a committed slot), and the delays
// inside [A, end[A]) only; everything else is read from the baseline — the
// committed state's loads, delays and sink-delay extrema, computed by
// Rebase and refreshed by Commit. A path that reaches the root
// driver unbuffered changes the source term of every sink, so such a trial
// falls back to Eval. Trial repeats Eval's arithmetic operation for
// operation and is bit-identical to it.
//
// Evaluations against the same committed state are independent pure
// functions, so trials for different candidates may run concurrently on
// separate scratches — the basis of the speculative parallel refinement
// pass.
type WhatIf struct {
	parent []int32
	res    []float64
	capv   []float64
	kind   []uint8 // wire / fixed buffer / toggleable slot
	on     []bool  // slot state (committed buffers)

	buf     tech.Buffer
	rootRes float64

	sinkNet []int32 // network node of each sink record, ascending
	sinkIdx []int32 // original sink index of each sink record
	slotOf  []int32 // slot node of each tree node, -1 for none

	// Trial index, built by Rebase (EvaluateWhatIf never pays for it): the
	// subtree of v is [v, end[v]), so v's children are v+1 and each node
	// that starts where the previous child's subtree ends.
	end []int32

	// Baseline of the committed state, valid while based is set.
	based    bool
	base     WhatIfScratch // committed loads and delays
	src      float64       // root source term of every sink delay
	lo, hi   float64       // extrema of the sink delays
	kLo, kHi int           // the sink records that first reach them

	netOf   []int32                   // lowering scratch, reused across builds
	sinkDst []float64                 // per-sink delay scratch (EvaluateWhatIfIn)
	spool   arena.Pool[WhatIfScratch] // idle evaluation workspaces
}

const (
	wiWire uint8 = iota
	wiBuf
	wiSlot
)

// WhatIfScratch is the reusable per-evaluation workspace. Evaluations on
// distinct scratches are safe to run concurrently. Its lanes grow on first
// use: Eval's to the network, Trial's to the subtree it re-evaluates.
type WhatIfScratch struct {
	load, d []float64
	path    []int32   // Trial: the slot and its ancestors up to the absorber
	pathLd  []float64 // Trial: their loads with the slot turned on
	kids    []int32   // Trial: the children of one path node
}

// NewScratch returns a workspace for this network, recycling one a
// previous evaluation put back.
func (w *WhatIf) NewScratch() *WhatIfScratch {
	if s := w.spool.Get(); s != nil {
		return s
	}
	return &WhatIfScratch{}
}

// PutScratch returns a workspace for reuse by a later NewScratch.
func (w *WhatIf) PutScratch(s *WhatIfScratch) { w.spool.Put(s) }

// NewWhatIf lowers the annotated tree once, mirroring BuildNetwork's RC
// rules, and plants a toggleable buffer slot at every centroid that does
// not already carry a node buffer. The tree must already be valid (the
// caller's initial Evaluate checks that).
func NewWhatIf(t *ctree.Tree, tc *tech.Tech) *WhatIf {
	return NewWhatIfIn(t, tc, nil)
}

// NewWhatIfIn is NewWhatIf recycling a model (lanes, slot map and idle
// scratches) from the job's eval arena; nil falls back to the package pool.
// Release with ReleaseWhatIf when done. Bit-identical results either way.
func NewWhatIfIn(t *ctree.Tree, tc *tech.Tech, j *arena.Job) *WhatIf {
	w := evalHomeOf(j).wi.Get()
	if w == nil {
		w = &WhatIf{}
	}
	w.build(t, tc)
	return w
}

// ReleaseWhatIf returns a model obtained from NewWhatIfIn to its pool. The
// caller must pass the same job (or nil) it acquired with and must not use
// w afterwards.
func ReleaseWhatIf(j *arena.Job, w *WhatIf) { evalHomeOf(j).wi.Put(w) }

// build (re)lowers the tree into the model, rewinding every lane.
func (w *WhatIf) build(t *ctree.Tree, tc *tech.Tech) {
	front, back, tsv, buf := tc.Front(), tc.Back(), tc.TSV, tc.Buf
	w.buf, w.rootRes = buf, buf.DriveRes
	w.parent = w.parent[:0]
	w.res = w.res[:0]
	w.capv = w.capv[:0]
	w.kind = w.kind[:0]
	w.sinkNet = w.sinkNet[:0]
	w.sinkIdx = w.sinkIdx[:0]
	w.based = false
	w.slotOf = arena.Grow(w.slotOf, t.Len())
	for i := range w.slotOf {
		w.slotOf[i] = -1
	}
	w.addNode(-1, 0, 0, wiWire) // node 0: root driver
	w.netOf = arena.Grow(w.netOf, t.Len())
	netOf := w.netOf
	netOf[t.Root()] = 0
	if t.Nodes[t.Root()].BufferAtNode {
		netOf[t.Root()] = w.addNode(0, 0, buf.InputCap, wiBuf)
	}
	t.PreOrder(func(id int) {
		if id == t.Root() {
			return
		}
		n := &t.Nodes[id]
		parent := netOf[n.Parent]
		length := t.EdgeLen(id)
		wr := n.Wiring
		var at int32
		switch {
		case n.Kind == ctree.KindSink:
			at = w.addNode(parent, front.UnitRes*length, front.UnitCap*length+tc.SinkCap, wiWire)
			w.sinkNet = append(w.sinkNet, at)
			w.sinkIdx = append(w.sinkIdx, int32(n.SinkIdx))
		case wr.BufMid:
			h := length / 2
			upw := w.addNode(parent, front.UnitRes*h, front.UnitCap*h, wiWire)
			bufn := w.addNode(upw, 0, buf.InputCap, wiBuf)
			at = w.addNode(bufn, front.UnitRes*h, front.UnitCap*h, wiWire)
		case wr.WireSide == ctree.Back:
			cur := parent
			if wr.TSVUp {
				cur = w.addNode(cur, tsv.Res, tsv.Cap, wiWire)
			}
			cur = w.addNode(cur, back.UnitRes*length, back.UnitCap*length, wiWire)
			if wr.TSVDown {
				cur = w.addNode(cur, tsv.Res, tsv.Cap, wiWire)
			}
			at = cur
		default: // plain front wire
			at = w.addNode(parent, front.UnitRes*length, front.UnitCap*length, wiWire)
		}
		switch {
		case n.BufferAtNode:
			at = w.addNode(at, 0, buf.InputCap, wiBuf)
		case n.Kind == ctree.KindCentroid:
			at = w.addNode(at, 0, 0, wiSlot)
			w.slotOf[id] = at
		}
		netOf[id] = at
	})
	w.on = arena.GrowZero(w.on, len(w.parent))
}

func (w *WhatIf) addNode(parent int32, res, capv float64, kind uint8) int32 {
	id := int32(len(w.parent))
	w.parent = append(w.parent, parent)
	w.res = append(w.res, res)
	w.capv = append(w.capv, capv)
	w.kind = append(w.kind, kind)
	return id
}

// SlotOf returns the slot node of a centroid tree node, or -1 when the
// node is not a centroid or already carries a fixed buffer.
func (w *WhatIf) SlotOf(treeNode int) int32 { return w.slotOf[treeNode] }

// Committed reports whether the slot is already a buffer.
func (w *WhatIf) Committed(slot int32) bool { return w.on[slot] }

// Commit turns the slot into a buffer for all subsequent evaluations and,
// once Rebase has been called, refreshes the baseline Trial reads.
func (w *WhatIf) Commit(slot int32) {
	w.on[slot] = true
	if w.based {
		w.rebase()
	}
}

// CommittedTreeNodes returns the tree node ids of all committed slots, in
// ascending order.
func (w *WhatIf) CommittedTreeNodes() []int {
	var out []int
	for id, s := range w.slotOf {
		if s >= 0 && w.on[s] {
			out = append(out, id)
		}
	}
	return out
}

// EvaluateWhatIf computes the tree's full Metrics through one flat WhatIf
// pass instead of Evaluate's staged network, skipping the structural
// re-validation walk. It exists for incremental (ECO) re-synthesis, where
// the tree is a splice of already-validated pieces and the evaluation is
// the tail of the hot path: the spliced structure is correct by
// construction, so only the numbers need recomputing. nSinks bounds the
// sink index space of the tree. Elmore mode only; agrees with Evaluate to
// 1e-9 relative (TestWhatIfMatchesEvaluate).
func (e *Evaluator) EvaluateWhatIf(t *ctree.Tree, nSinks int) (*Metrics, error) {
	return e.EvaluateWhatIfIn(t, nSinks, nil)
}

// EvaluateWhatIfIn is EvaluateWhatIf recycling the model and its lanes from
// the job's eval arena; nil falls back to the package pool. Bit-identical
// results either way.
func (e *Evaluator) EvaluateWhatIfIn(t *ctree.Tree, nSinks int, j *arena.Job) (*Metrics, error) {
	if e.mode != Elmore {
		return nil, fmt.Errorf("eval: what-if evaluation requires Elmore mode")
	}
	w := NewWhatIfIn(t, e.tc, j)
	defer ReleaseWhatIf(j, w)
	if len(w.sinkIdx) == 0 {
		return nil, fmt.Errorf("eval: tree has no sinks")
	}
	// Every cell read below is written by Eval first (only sink indices in
	// w.sinkIdx are consulted), so the lane needs no zeroing.
	w.sinkDst = arena.Grow(w.sinkDst, nSinks)
	dst := w.sinkDst
	for _, si := range w.sinkIdx {
		if si < 0 || int(si) >= nSinks {
			return nil, fmt.Errorf("eval: sink index %d outside [0,%d)", si, nSinks)
		}
	}
	sc := w.NewScratch()
	lat, skew := w.Eval(-1, sc, dst)
	w.PutScratch(sc)
	m := &Metrics{
		Latency: lat, Skew: skew, WL: t.Wirelength(),
		SinkDelays: make(map[int]float64, len(w.sinkIdx)),
	}
	m.Buffers, m.NTSVs = t.Counts()
	for _, si := range w.sinkIdx {
		m.SinkDelays[int(si)] = dst[si]
	}
	return m, nil
}

// Eval computes (latency, skew) of the network with slot `extra` (-1 for
// none) treated as a buffer on top of the committed state. When dst is
// non-nil it must be indexable by every original sink index; the per-sink
// delays are written into it. Eval does not mutate w and may run
// concurrently on distinct scratches.
func (w *WhatIf) Eval(extra int32, sc *WhatIfScratch, dst []float64) (latency, skew float64) {
	n := len(w.parent)
	sc.load = arena.GrowZero(sc.load, n)
	sc.d = arena.Grow(sc.d, n)
	load := sc.load
	inCap := w.buf.InputCap
	// Bottom-up loads (children have larger indices than parents).
	for i := n - 1; i >= 1; i-- {
		active := w.kind[i] == wiBuf || (w.kind[i] == wiSlot && (w.on[i] || int32(i) == extra))
		l := load[i]
		if !active {
			l += w.capv[i]
		}
		load[i] = l
		p := w.parent[i]
		if active {
			load[p] += inCap
		} else {
			load[p] += l
		}
	}
	// Top-down delays.
	d := sc.d
	d[0] = 0
	for i := 1; i < n; i++ {
		active := w.kind[i] == wiBuf || (w.kind[i] == wiSlot && (w.on[i] || int32(i) == extra))
		visible := load[i]
		if active {
			visible = inCap
		}
		at := d[w.parent[i]] + w.res[i]*visible
		if active {
			at += w.buf.Delay(load[i])
		}
		d[i] = at
	}
	src := w.rootRes * load[0]
	lo, hi := math.Inf(1), math.Inf(-1)
	for k, nn := range w.sinkNet {
		dd := d[nn] + src
		if dst != nil {
			dst[w.sinkIdx[k]] = dd
		}
		if dd < lo {
			lo = dd
		}
		if dd > hi {
			hi = dd
		}
	}
	return hi, hi - lo
}

// Rebase evaluates the committed state with one full pass and keeps it as
// the baseline Trial and SinkDelays read, building the trial index on
// first use after the model is lowered. It returns what Eval(-1, ...)
// would. Rebase mutates w and must not overlap any Trial.
func (w *WhatIf) Rebase() (latency, skew float64) {
	if !w.based {
		w.index()
	}
	w.rebase()
	return w.hi, w.hi - w.lo
}

// SinkDelays writes the baseline's per-sink delays into dst, exactly as
// Eval(-1, sc, dst) would on the committed state. It requires Rebase.
func (w *WhatIf) SinkDelays(dst []float64) {
	for k, nn := range w.sinkNet {
		dst[w.sinkIdx[k]] = w.base.d[nn] + w.src
	}
}

// index builds the subtree ends Trial walks. The lowering appends in
// preorder, so a node's subtree ends where its last descendant's does.
func (w *WhatIf) index() {
	w.end = arena.Grow(w.end, len(w.parent))
	for i := range w.end {
		w.end[i] = int32(i + 1)
	}
	for i := len(w.end) - 1; i >= 1; i-- {
		p := w.parent[i]
		w.end[p] = max(w.end[p], w.end[i])
	}
}

// rebase recomputes the baseline of the committed state: loads, delays,
// the source term, and the sink-delay extrema with where they are reached.
func (w *WhatIf) rebase() {
	w.Eval(-1, &w.base, nil)
	w.src = w.rootRes * w.base.load[0]
	w.lo, w.hi = math.Inf(1), math.Inf(-1)
	w.kLo, w.kHi = -1, -1
	for k, nn := range w.sinkNet {
		dd := w.base.d[nn] + w.src
		if dd < w.lo {
			w.lo, w.kLo = dd, k
		}
		if dd > w.hi {
			w.hi, w.kHi = dd, k
		}
	}
	w.based = true
}

// widen extends [lo, hi] to cover v with Eval's comparisons.
func widen(lo, hi, v float64) (float64, float64) {
	if v < lo {
		lo = v
	}
	if v > hi {
		hi = v
	}
	return lo, hi
}

// fixed reports whether node i is a buffer in the committed state.
func (w *WhatIf) fixed(i int32) bool {
	return w.kind[i] == wiBuf || (w.kind[i] == wiSlot && w.on[i])
}

// kidSum is node v's load before its own capacitance, in the committed
// state except that child c shows v the load cv: the sum of what v's
// children show it, in the descending-index order Eval accumulates them.
func (w *WhatIf) kidSum(v, c int32, cv float64, sc *WhatIfScratch) float64 {
	kids := sc.kids[:0]
	for k := v + 1; k < w.end[v]; k = w.end[k] {
		kids = append(kids, k)
	}
	sc.kids = kids
	var l float64
	for q := len(kids) - 1; q >= 0; q-- {
		k := kids[q]
		x := w.base.load[k]
		switch {
		case k == c:
			x = cv
		case w.fixed(k):
			x = w.buf.InputCap
		}
		l += x
	}
	return l
}

// climb walks up from the slot, turned on, recomputing each load from its
// children, to the first buffer: that absorber shows its parent inCap
// whatever its own load, so nothing above it changes. It leaves the path
// (slot first, absorber last) and its loads in sc and reports false when
// the walk reaches the root driver instead.
func (w *WhatIf) climb(slot int32, sc *WhatIfScratch) (absorbed bool) {
	path := append(sc.path[:0], slot)
	pathLd := append(sc.pathLd[:0], w.kidSum(slot, -1, 0, sc))
	for c, cv := slot, w.buf.InputCap; !absorbed; {
		p := w.parent[c]
		if p == 0 {
			break
		}
		l := w.kidSum(p, c, cv, sc)
		absorbed = w.fixed(p)
		if !absorbed {
			l += w.capv[p]
		}
		path, pathLd = append(path, p), append(pathLd, l)
		c, cv = p, l
	}
	sc.path, sc.pathLd = path, pathLd
	return absorbed
}

// Trial returns what Eval(slot, sc, nil) returns, bit for bit, in time
// proportional to the subtree the slot's buffer changes. It reads the
// baseline of the last Rebase or Commit, does not mutate w, and may run
// concurrently on distinct scratches.
func (w *WhatIf) Trial(slot int32, sc *WhatIfScratch) (latency, skew float64) {
	if w.kind[slot] != wiSlot || w.on[slot] {
		return w.hi, w.hi - w.lo
	}
	if !w.climb(slot, sc) {
		// Unbuffered up to the root driver: the source term of every sink
		// changes.
		return w.Eval(slot, sc, nil)
	}
	inCap := w.buf.InputCap
	path, pathLd := sc.path, sc.pathLd

	// Re-run Eval's top-down recurrence over the absorber's subtree, whose
	// path nodes are met in ascending order (the reverse of the walk);
	// d[i-a] is node i's delay.
	a := path[len(path)-1]
	e := w.end[a]
	sc.d = arena.Grow(sc.d, int(e-a))
	d, top := sc.d, w.base.d[w.parent[a]]
	j := len(path) - 1
	for i := a; i < e; i++ {
		ld := w.base.load[i]
		if j >= 0 && path[j] == i {
			ld = pathLd[j]
			j--
		}
		active := w.kind[i] == wiBuf || (w.kind[i] == wiSlot && (w.on[i] || i == slot))
		visible := ld
		if active {
			visible = inCap
		}
		up := top
		if i > a {
			up = d[w.parent[i]-a]
		}
		at := up + w.res[i]*visible
		if active {
			at += w.buf.Delay(ld)
		}
		d[i-a] = at
	}

	// Sinks outside the subtree keep their baseline delays, so the
	// baseline extrema stand for them unless the subtree holds one.
	k0, _ := slices.BinarySearch(w.sinkNet, a)
	k1, _ := slices.BinarySearch(w.sinkNet, e)
	lo, hi := w.lo, w.hi
	if k0 <= w.kLo && w.kLo < k1 || k0 <= w.kHi && w.kHi < k1 {
		lo, hi = math.Inf(1), math.Inf(-1)
		for _, nn := range w.sinkNet[:k0] {
			lo, hi = widen(lo, hi, w.base.d[nn]+w.src)
		}
		for _, nn := range w.sinkNet[k1:] {
			lo, hi = widen(lo, hi, w.base.d[nn]+w.src)
		}
	}
	for _, nn := range w.sinkNet[k0:k1] {
		lo, hi = widen(lo, hi, d[nn-a]+w.src)
	}
	return hi, hi - lo
}
