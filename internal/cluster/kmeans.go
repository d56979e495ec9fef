// Package cluster implements the dual-level sink clustering of the paper's
// hierarchical clock routing (Sec. III-B): k-means++ seeded Lloyd iterations
// with a capacity-balancing refinement, applied twice — high-level clusters
// of target size Hc (3000 in the paper) and, within each, low-level clusters
// of target size Lc (30). Centroids of both levels are recorded for the
// hierarchical DME step and for skew-refinement buffer sites.
//
// The Lloyd assignment step — the hot loop of the whole synthesis flow — is
// accelerated three ways, none of which changes the result:
//
//   - Hamerly bounds skip the nearest-centroid search for every point whose
//     assignment provably cannot change (see assignRange): each point keeps
//     an upper bound on the distance to its centroid and a lower bound on
//     the distance to every other one, both shifted by the centroid drift
//     of each pass, and a point whose bounds stay apart by the rounding
//     margin boundsEps is left alone. The k-means++ seeding draws each seed
//     by binary search over the running sums of its distance field, one
//     pass over the points per seed instead of two;
//   - the search itself, for the points that still need it, walks a
//     spatial grid over the centroids by rings instead of the naive O(k)
//     scan (see grid.go), and it is sharded across a worker pool
//     (Options.Workers). Assignments are pure per-point functions of the
//     centroid set and centroid updates are accumulated sequentially, so any
//     worker count produces bit-identical clusterings;
//   - all inner loops run over flat struct-of-arrays x/y float64 slices held
//     in a reusable scratch arena (kmScratch) instead of []geom.Point, so a
//     whole Lloyd run allocates nothing after the first invocation warms the
//     scratch. The scratch comes from the job arena (Options.Arena) when one
//     is attached, or from a package-level pool otherwise — repeated calls
//     reuse buffers either way.
//
// Options.Brute switches off the bounds, the grid and the binary-search
// draw: the plain O(n·k) scan of bruteNearest and the linear seed draw are
// the oracle the accelerated passes are tested against, bit for bit.
//
// Iterations also stop as soon as the centroid set reaches a fixed point
// (exact equality), which skips the trailing no-op assignment passes of a
// fixed iteration budget.
package cluster

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"

	"dscts/internal/arena"
	"dscts/internal/geom"
	"dscts/internal/par"
)

// Result is one clustering solution.
type Result struct {
	// Assign maps each input point index to its cluster id in [0,K).
	Assign []int
	// Centroids holds one centroid per cluster.
	Centroids []geom.Point
	// Members lists the point indices of each cluster.
	Members [][]int
}

// K returns the number of clusters.
func (r *Result) K() int { return len(r.Centroids) }

// IntraWL returns the total intra-cluster wirelength approximation the
// high-level clustering minimizes: the sum of Manhattan distances from each
// point to its cluster centroid.
func (r *Result) IntraWL(pts []geom.Point) float64 {
	var wl float64
	for i, a := range r.Assign {
		wl += pts[i].Dist(r.Centroids[a])
	}
	return wl
}

// Options controls KMeans.
type Options struct {
	// TargetSize is the desired cluster size; K = ceil(N/TargetSize).
	TargetSize int
	// MaxIter bounds Lloyd iterations.
	MaxIter int
	// Seed makes runs deterministic.
	Seed int64
	// Balance enables the capacity refinement pass that caps cluster size
	// at ceil(1.25·TargetSize), moving overflow points to their next
	// nearest non-full cluster. This keeps low-level clusters within the
	// leaf-net fanout bound.
	Balance bool
	// Workers shards the assignment loop; <= 0 means all CPUs. The result
	// is identical for every worker count.
	Workers int
	// Brute runs the unaccelerated reference: no bounds, no grid, the
	// O(n·k) scan of bruteNearest and a linear seed draw. The accelerated
	// passes are exact, so this only exists for benchmarking and as the
	// oracle they are checked against.
	Brute bool
	// Arena, when set, sources all Lloyd scratch from the job's arena so
	// recycled jobs cluster allocation-free. A nil Arena falls back to a
	// package-level scratch pool; results are bit-identical either way.
	Arena *arena.Job
}

// kmScratch holds every transient buffer of one KMeans invocation in flat
// struct-of-arrays form. It is reused across invocations via clusterScratch
// pools; every field is fully (re)written before it is read, so reuse cannot
// affect results.
type kmScratch struct {
	xs, ys   []float64 // flattened input points
	cxs, cys []float64 // centroids
	pxs, pys []float64 // previous-iteration centroids
	sxs, sys []float64 // recompute accumulators
	cnt      []int
	d2       []float64 // k-means++ distance field
	assign   []int
	changed  []bool    // per-chunk assignment-change flags
	ub, lb   []float64 // per-point Hamerly bounds (see assignRange)
	move     []float64 // per-centroid drift since the last assignment pass
	remap    []int
	members  []int // balance: counting-sorted member index backing
	moff     []int
	grid     centGrid
	pcg      rand.PCG // seeding generator, re-seeded per run

	// Per-run state of the assignment passes, set by lloyd.
	ref      bool    // Options.Brute: unbounded reference scan
	useGrid  bool    // search through grid instead of bruteNearestTwo
	bounded  bool    // ub/lb hold valid bounds from the previous pass
	eps      float64 // absolute skip margin (boundsEps)
	mv1, mv2 float64 // largest and second-largest entry of move
	mvArg    int     // index of mv1
}

// clusterScratch is the cluster phase's slot in the job arena: pools of
// per-invocation scratch (nested and concurrent KMeans calls each check out
// their own).
type clusterScratch struct {
	km  arena.Pool[kmScratch]
	sub arena.Pool[subBuf]
}

// subBuf stages the point subset handed to a nested KMeans call.
type subBuf struct {
	pts []geom.Point
}

// fallbackScratch serves callers with no job arena attached, so even the
// plain KMeans/DualLevel entry points stop re-making their scratch on every
// invocation.
var fallbackScratch clusterScratch

func scratchHome(j *arena.Job) *clusterScratch {
	if s := arena.Slot(j, arena.PhaseCluster, func() *clusterScratch { return &clusterScratch{} }); s != nil {
		return s
	}
	return &fallbackScratch
}

// KMeans clusters pts into ceil(len(pts)/TargetSize) groups.
func KMeans(pts []geom.Point, opt Options) (*Result, error) {
	n := len(pts)
	if n == 0 {
		return nil, fmt.Errorf("cluster: no points")
	}
	if opt.TargetSize <= 0 {
		return nil, fmt.Errorf("cluster: target size %d", opt.TargetSize)
	}
	if opt.MaxIter <= 0 {
		opt.MaxIter = 50
	}
	k := (n + opt.TargetSize - 1) / opt.TargetSize
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	home := scratchHome(opt.Arena)
	s := home.km.Get()
	if s == nil {
		s = &kmScratch{}
	}
	defer home.km.Put(s)

	s.xs = arena.Grow(s.xs, n)
	s.ys = arena.Grow(s.ys, n)
	for i, p := range pts {
		s.xs[i] = p.X
		s.ys[i] = p.Y
	}
	lloyd(s, n, k, opt)
	if opt.Balance {
		balance(s, n, k, opt.TargetSize)
		recompute(s, n, k)
	}
	return buildResult(s, n, k), nil
}

// lloyd runs the k-means++ seeding and the Lloyd iteration loop entirely in
// scratch, leaving the final assignment in s.assign[:n] and the centroids in
// s.cxs/s.cys[:k]. It is shared by KMeans and the allocation-free bisect
// entry of the cap-aware splitter.
func lloyd(s *kmScratch, n, k int, opt Options) {
	s.cxs = arena.Grow(s.cxs, k)
	s.cys = arena.Grow(s.cys, k)
	s.pxs = arena.Grow(s.pxs, k)
	s.pys = arena.Grow(s.pys, k)
	s.sxs = arena.Grow(s.sxs, k)
	s.sys = arena.Grow(s.sys, k)
	s.cnt = arena.Grow(s.cnt, k)
	s.move = arena.Grow(s.move, k)
	s.assign = arena.GrowZero(s.assign, n)
	s.ub = arena.Grow(s.ub, n)
	s.lb = arena.Grow(s.lb, n)
	s.changed = arena.Grow(s.changed, (n+assignChunk-1)/assignChunk)
	s.ref = opt.Brute
	s.bounded = false
	s.eps = boundsEps(s.xs, s.ys, opt.MaxIter)

	// PCG seeding is effectively free, which matters because the
	// cap-aware splitting of the dual-level hierarchy re-enters KMeans
	// hundreds of times on small point sets.
	s.pcg.Seed(uint64(opt.Seed), 0x9e3779b97f4a7c15)
	seedPlusPlus(s, n, k, rand.New(&s.pcg))
	workers := par.N(opt.Workers)
	s.useGrid = !s.ref && s.grid.size(s.cxs, s.cys)
	for iter := 0; iter < opt.MaxIter; iter++ {
		if s.useGrid {
			s.grid.build(s.cxs, s.cys)
		}
		changed := assignNearest(s, workers)
		if afterAssign != nil {
			afterAssign(s)
		}
		copy(s.pxs, s.cxs)
		copy(s.pys, s.cys)
		recompute(s, n, k)
		if !changed && iter > 0 {
			break
		}
		// Fixed point: if no centroid moved at all, the next assignment
		// pass cannot change anything either — stop early. Exact equality
		// keeps the final (assign, cents) identical to the full loop.
		if centsEqual(s, k) {
			break
		}
		s.bounded = !s.ref
	}
}

// afterAssign, when set, sees the scratch after every assignment pass, before
// the centroids move. Tests use it to check each pass against the oracle.
var afterAssign func(s *kmScratch)

// boundsEps returns the absolute margin ε by which a point's Hamerly bounds
// must stay apart before its search is skipped, derived once per Lloyd run
// from the coordinate extent. Let u = 2⁻⁵³ and M = max|x| + max|y| over the
// points. Centroids are rounded means of points and grid cells are no wider
// than the centroid spread, so every point–centroid distance, centroid
// drift, ring bound and bound that decides a skip is below B = 4M. ε has to
// cover two roundings:
//
//   - the bounds: a computed distance (the square root of a computed d², or
//     a ring bound of the grid) is within 3u·B of the true one, and each
//     pass shifts ub and lb by one such drift with one rounded add, so after
//     T passes since their last exact value they are off by at most
//     (3 + 5T)·u·B each, plus u·B for the rounded ub+ε of the test itself;
//   - the comparison: a computed d² is within a relative 4u of the true
//     squared distance, so if the true distance to centroid c exceeds the
//     true distance to the assigned centroid a by more than 4u·B, computed
//     d²(c) > d²(a) strictly — a wins bruteNearest's first-minimum scan
//     against every c, whatever the index order.
//
// With T ≤ maxIter the sum stays below 16·(maxIter+1)·u·B. ε takes 2⁻⁴⁰ in
// place of 16u, a 512-fold margin; at the default 40 passes that is about
// 1.5e-10·M, far below any spacing k-means resolves. The floor of 2⁻⁵⁰⁰
// outweighs the √(2⁻¹⁰⁷⁴) a subnormal d² can lose, so degenerate tiny
// coordinates only ever stop skips. Non-finite coordinates make ε NaN or
// +Inf, which stops every skip too.
func boundsEps(xs, ys []float64, maxIter int) float64 {
	var mx, my float64
	for i := range xs {
		mx = math.Max(mx, math.Abs(xs[i]))
		my = math.Max(my, math.Abs(ys[i]))
	}
	return math.Max(4*(mx+my)*0x1p-40*float64(maxIter+1), 0x1p-500)
}

// bisect is the allocation-free twin of KMeans for the cap-aware recursive
// bipartition: TargetSize=(n+1)/2 always yields k=2 for n >= 2, Balance is
// off, and the caller consumes the assignment/centroids straight from the
// returned scratch (which it must hand back to home.km). The points are
// gathered from sinks through the index list, so the split recursion never
// materializes point subsets. The computation — seeding, iteration, early
// exits — is byte-for-byte the KMeans code path, so the split hierarchy is
// bit-identical to the one the full KMeans entry produced.
func bisect(sinks []geom.Point, idx []int, opt Options, home *clusterScratch) *kmScratch {
	n := len(idx)
	if opt.MaxIter <= 0 {
		opt.MaxIter = 50
	}
	s := home.km.Get()
	if s == nil {
		s = &kmScratch{}
	}
	s.xs = arena.Grow(s.xs, n)
	s.ys = arena.Grow(s.ys, n)
	for i, id := range idx {
		s.xs[i] = sinks[id].X
		s.ys[i] = sinks[id].Y
	}
	lloyd(s, n, 2, opt)
	return s
}

func centsEqual(s *kmScratch, k int) bool {
	for c := 0; c < k; c++ {
		if s.pxs[c] != s.cxs[c] || s.pys[c] != s.cys[c] {
			return false
		}
	}
	return true
}

// seedPlusPlus is the k-means++ seeding: spread initial centroids with
// probability proportional to squared distance from the nearest chosen seed.
// It writes the k seeds into s.cxs/s.cys.
//
// The distance field's running sums are kept in s.ub (free until the first
// Lloyd pass), so a seed is drawn by binary search for the first point whose
// running sum reaches the drawn value: the running sums are the very
// additions the reference's linear scan performs, in the same order, so both
// draw the same point, and each seed costs one pass over the points instead
// of two. Each point's nearest seed so far (lowest index on ties) goes to
// s.assign, which primes the first Lloyd pass's search with its answer.
func seedPlusPlus(s *kmScratch, n, k int, rng *rand.Rand) {
	first := rng.IntN(n)
	s.cxs[0] = s.xs[first]
	s.cys[0] = s.ys[first]
	if k == 1 {
		// The distance field below only steers the CHOICE of later seeds;
		// with a single centroid it is dead work (the rng is not consulted
		// again), so skipping it cannot change any result.
		return
	}
	s.d2 = arena.Grow(s.d2, n)
	xs := s.xs[:n]
	ys, d2, sums, near := s.ys[:len(xs)], s.d2[:len(xs)], s.ub[:len(xs)], s.assign[:len(xs)]
	var total float64
	for i := range xs {
		dx, dy := xs[i]-s.cxs[0], ys[i]-s.cys[0]
		d2[i] = dx*dx + dy*dy
		total += d2[i]
		sums[i] = total
	}
	for kc := 1; ; kc++ {
		next := n - 1
		switch {
		case total <= 0:
			next = rng.IntN(n)
		case s.ref:
			r := rng.Float64() * total
			acc := 0.0
			for i, v := range d2 {
				acc += v
				if acc >= r {
					next = i
					break
				}
			}
		default:
			r := rng.Float64() * total
			lo := 0 // sums[next] == total >= r
			for lo < next {
				if m := int(uint(lo+next) >> 1); sums[m] >= r {
					next = m
				} else {
					lo = m + 1
				}
			}
		}
		cx, cy := xs[next], ys[next]
		s.cxs[kc] = cx
		s.cys[kc] = cy
		if kc == k-1 {
			return // the last seed steers no further draw
		}
		// Tighten the distance field and rebuild its sum in one pass
		// (recomputing rather than decrementing keeps the sum exact).
		total = 0
		for i := range xs {
			dx, dy := xs[i]-cx, ys[i]-cy
			if v := dx*dx + dy*dy; v < d2[i] {
				d2[i] = v
				near[i] = kc
			}
			total += d2[i]
			sums[i] = total
		}
	}
}

// assignChunk is the fixed shard size of the parallel assignment loop. The
// chunk boundaries depend only on the point count, so sharding never
// affects which points compare against which centroids. It is also the
// cache block: a chunk's x/y lanes (2·2048·8 B = 32 KB) stay resident while
// the centroid lanes stream through.
const assignChunk = 2048

// assignNearest writes the index of the exact nearest centroid (lowest
// index on ties) for every point, sharding the points across workers. Each
// point's assignment is an independent pure function of the centroid set,
// so the output is schedule-independent.
func assignNearest(s *kmScratch, workers int) bool {
	if s.bounded {
		// How far each centroid moved since the last pass (pxs → cxs),
		// and the two largest moves.
		s.mv1, s.mv2, s.mvArg = 0, 0, -1
		for c := range s.move {
			dx, dy := s.cxs[c]-s.pxs[c], s.cys[c]-s.pys[c]
			if s.move[c] = math.Sqrt(dx*dx + dy*dy); s.move[c] > s.mv1 {
				s.mv1, s.mv2, s.mvArg = s.move[c], s.mv1, c
			} else if s.move[c] > s.mv2 {
				s.mv2 = s.move[c]
			}
		}
	}
	n := len(s.xs)
	if workers <= 1 {
		// Inline chunk walk: same chunks as the pooled path, minus the
		// escaping closure (two heap allocations per Lloyd pass —
		// thousands per clustering once the cap-aware splitter re-enters
		// KMeans per low cluster).
		for lo := 0; lo < n; lo += assignChunk {
			s.changed[lo/assignChunk] = s.assignRange(lo, min(lo+assignChunk, n))
		}
	} else {
		par.Chunks(workers, n, assignChunk, func(lo, hi int) {
			s.changed[lo/assignChunk] = s.assignRange(lo, hi)
		})
	}
	return slices.Contains(s.changed, true)
}

// assignRange assigns points [lo,hi) and reports whether any assignment
// changed. It is the one per-point path of both the inline and the pooled
// loop.
//
// ub[i] bounds from above the distance from point i to its centroid a, and
// lb[i] bounds from below its distance to every other centroid. When the
// centroids move, the triangle inequality shifts them: ub grows by a's own
// move, lb shrinks by the largest move among the others. If ub + ε < lb
// still holds, a is strictly nearest (boundsEps), so the search is skipped;
// otherwise ub is first tightened to the exact distance and tested again.
// Only a point that fails both runs the full search, which yields fresh
// bounds: its best distance, and the lesser of its second-best distance and
// the distance the search proved nothing unscanned can undercut.
func (s *kmScratch) assignRange(lo, hi int) bool {
	xs := s.xs[lo:hi]
	ys, assign := s.ys[lo:hi][:len(xs)], s.assign[lo:hi][:len(xs)]
	ubs, lbs := s.ub[lo:hi][:len(xs)], s.lb[lo:hi][:len(xs)]
	cxs, cys, move, eps, mv1, mv2, mvArg := s.cxs, s.cys, s.move, s.eps, s.mv1, s.mv2, s.mvArg
	changed := false
	for i, px := range xs {
		py, a := ys[i], assign[i]
		if s.bounded {
			ub, lb := ubs[i]+move[a], lbs[i]-mv1
			if a == mvArg {
				lb = lbs[i] - mv2
			}
			if ub+eps >= lb {
				dx, dy := px-cxs[a], py-cys[a]
				ub = math.Sqrt(dx*dx + dy*dy)
			}
			if ub+eps < lb {
				ubs[i], lbs[i] = ub, lb
				continue
			}
		}
		var best int
		var bestD2, lb2 float64
		switch {
		case s.ref:
			best = bruteNearest(px, py, cxs, cys)
		case s.useGrid:
			best, bestD2, lb2 = s.grid.nearest(px, py, cxs, cys, a)
		default:
			best, bestD2, lb2 = bruteNearestTwo(px, py, cxs, cys)
		}
		ubs[i], lbs[i] = math.Sqrt(bestD2), math.Sqrt(lb2)
		if best != a {
			assign[i] = best
			changed = true
		}
	}
	return changed
}

// bruteNearest is the reference O(k) scan; first minimum wins, which equals
// the lowest index among distance ties. Squared distances order identically
// to Euclidean ones, so this matches the grid search exactly.
func bruteNearest(px, py float64, cxs, cys []float64) int {
	best, bestD2 := 0, math.Inf(1)
	for c := range cxs {
		dx, dy := px-cxs[c], py-cys[c]
		if d2 := dx*dx + dy*dy; d2 < bestD2 {
			best, bestD2 = c, d2
		}
	}
	return best
}

// bruteNearestTwo is bruteNearest that also returns the best squared
// distance and the second-smallest one (+Inf for a single centroid), which
// seed the point's bounds.
func bruteNearestTwo(px, py float64, cxs, cys []float64) (best int, bestD2, secD2 float64) {
	bestD2, secD2 = math.Inf(1), math.Inf(1)
	for c := range cxs {
		dx, dy := px-cxs[c], py-cys[c]
		if d2 := dx*dx + dy*dy; d2 < bestD2 {
			best, bestD2, secD2 = c, d2, bestD2
		} else if d2 < secD2 {
			secD2 = d2
		}
	}
	return best, bestD2, secD2
}

// recompute rebuilds the centroid set from the current assignment, in place
// over s.cxs/s.cys. Sums accumulate componentwise in point order — the exact
// FP operation sequence of the original geom.Point accumulation. Clusters
// left empty keep their current centroid (they may repopulate).
func recompute(s *kmScratch, n, k int) {
	sxs, sys, cnt := s.sxs[:k], s.sys[:k], s.cnt[:k]
	for c := 0; c < k; c++ {
		sxs[c], sys[c], cnt[c] = 0, 0, 0
	}
	for i := 0; i < n; i++ {
		a := s.assign[i]
		sxs[a] += s.xs[i]
		sys[a] += s.ys[i]
		cnt[a]++
	}
	for c := 0; c < k; c++ {
		if cnt[c] == 0 {
			continue // keep seed; may repopulate
		}
		inv := 1 / float64(cnt[c])
		s.cxs[c] = sxs[c] * inv
		s.cys[c] = sys[c] * inv
	}
}

// balance enforces a soft capacity of ceil(1.25·target): clusters over the
// cap shed their farthest points to the nearest cluster with headroom.
func balance(s *kmScratch, n, k, target int) {
	capSize := int(math.Ceil(1.25 * float64(target)))
	if capSize < 1 {
		capSize = 1
	}
	// Counting-sort the members into one flat backing; segments are
	// three-index sliced so the rare "everyone full" re-append cannot
	// scribble over the next cluster's segment.
	s.moff = arena.Grow(s.moff, k+1)
	s.members = arena.Grow(s.members, n)
	moff := s.moff
	for c := range moff {
		moff[c] = 0
	}
	for i := 0; i < n; i++ {
		moff[s.assign[i]+1]++
	}
	for c := 1; c <= k; c++ {
		moff[c] += moff[c-1]
	}
	s.cnt = arena.GrowZero(s.cnt, k)
	fill := s.cnt
	for i := 0; i < n; i++ {
		a := s.assign[i]
		s.members[moff[a]+fill[a]] = i
		fill[a]++
	}
	memberOf := func(c int) []int {
		return s.members[moff[c]:moff[c+1]:moff[c+1]]
	}
	size := fill // alias: fill[c] == len(members of c)
	for c := 0; c < k; c++ {
		if size[c] <= capSize {
			continue
		}
		// Evict points farthest from the centroid first.
		m := memberOf(c)
		ccx, ccy := s.cxs[c], s.cys[c]
		// slices.SortFunc sorts m in place without boxing it on the heap,
		// and its pdqsort is sort.Slice's (one template generates both), so
		// distance ties keep the order the golden metrics pin.
		slices.SortFunc(m, func(i, j int) int {
			dxi, dyi := s.xs[i]-ccx, s.ys[i]-ccy
			dxj, dyj := s.xs[j]-ccx, s.ys[j]-ccy
			switch di, dj := dxi*dxi+dyi*dyi, dxj*dxj+dyj*dyj; {
			case di < dj:
				return -1
			case dj < di:
				return 1
			}
			return 0
		})
		for len(m) > capSize {
			p := m[len(m)-1]
			m = m[:len(m)-1]
			// Nearest cluster with headroom.
			best, bestD2 := -1, math.Inf(1)
			px, py := s.xs[p], s.ys[p]
			for o := 0; o < k; o++ {
				if o == c || size[o] >= capSize {
					continue
				}
				dx, dy := px-s.cxs[o], py-s.cys[o]
				if d2 := dx*dx + dy*dy; d2 < bestD2 {
					best, bestD2 = o, d2
				}
			}
			if best < 0 {
				// Everyone full (can happen when N ≈ k·cap); keep it.
				m = append(m, p)
				break
			}
			s.assign[p] = best
			size[best]++
			size[c]--
		}
	}
}

// buildResult materializes the compact Result. Everything it returns is
// freshly heap-allocated — the Result escapes to the caller and must never
// alias arena scratch. Members is a counting sort over one shared backing
// array, replacing the per-cluster append chains that used to dominate the
// clustering allocation profile.
func buildResult(s *kmScratch, n, k int) *Result {
	// Drop empty clusters and remap ids for a compact result.
	s.cnt = arena.GrowZero(s.cnt, k)
	cnt := s.cnt
	for _, a := range s.assign[:n] {
		cnt[a]++
	}
	s.remap = arena.Grow(s.remap, k)
	remap := s.remap
	nk := 0
	for c := 0; c < k; c++ {
		if cnt[c] == 0 {
			remap[c] = -1
			continue
		}
		remap[c] = nk
		nk++
	}
	kept := make([]geom.Point, nk)
	nk = 0
	for c := 0; c < k; c++ {
		if remap[c] >= 0 {
			kept[nk] = geom.Point{X: s.cxs[c], Y: s.cys[c]}
			nk++
		}
	}
	out := &Result{
		Assign:    make([]int, n),
		Centroids: kept,
		Members:   make([][]int, nk),
	}
	backing := make([]int, n)
	s.moff = arena.Grow(s.moff, nk+1)
	moff := s.moff
	for c := range moff[:nk+1] {
		moff[c] = 0
	}
	for _, a := range s.assign[:n] {
		moff[remap[a]+1]++
	}
	for c := 1; c <= nk; c++ {
		moff[c] += moff[c-1]
	}
	for c := 0; c < nk; c++ {
		out.Members[c] = backing[moff[c]:moff[c]:moff[c+1]]
	}
	for i, a := range s.assign[:n] {
		na := remap[a]
		out.Assign[i] = na
		out.Members[na] = append(out.Members[na], i)
	}
	return out
}
