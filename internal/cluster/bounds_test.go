package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"dscts/internal/bench"
	"dscts/internal/geom"
)

// passLog records, through the afterAssign hook, every Lloyd assignment
// pass of the KMeans calls it watches: it checks each pass against the
// oracle and counts the passes, so two runs can be compared pass for pass.
type passLog struct {
	mu     sync.Mutex
	passes int
	tight  int // points whose bounds alone would skip the next pass
	fail   error
}

// watch installs the hook for the duration of the test. DualLevel runs
// KMeans calls concurrently, so the hook only takes the lock around the
// shared counters.
func (l *passLog) watch(t testing.TB) {
	afterAssign = l.check
	t.Cleanup(func() { afterAssign = nil })
}

func (l *passLog) reset() {
	l.mu.Lock()
	l.passes, l.tight, l.fail = 0, 0, nil
	l.mu.Unlock()
}

// check asserts that every point of a bounded pass sits on its exact
// nearest centroid (bruteNearest's choice over the centroids of this very
// pass) and that ub and lb really bound the distances they claim to, within
// the skip margin. Reference passes are only counted: they are the oracle.
func (l *passLog) check(s *kmScratch) {
	tight := 0
	var fail error
	for i := 0; i < len(s.xs) && fail == nil && !s.ref; i++ {
		px, py, a := s.xs[i], s.ys[i], s.assign[i]
		want := bruteNearest(px, py, s.cxs, s.cys)
		da2, other2 := 0.0, math.Inf(1)
		for c := range s.cxs {
			dx, dy := px-s.cxs[c], py-s.cys[c]
			if c == a {
				da2 = dx*dx + dy*dy
			} else {
				other2 = math.Min(other2, dx*dx+dy*dy)
			}
		}
		switch {
		case a != want:
			fail = fmt.Errorf("point %d (%v,%v) on centroid %d, bruteNearest says %d", i, px, py, a, want)
		case s.ub[i]+s.eps < math.Sqrt(da2) || s.lb[i]-s.eps > math.Sqrt(other2):
			fail = fmt.Errorf("point %d: bounds [%v, %v] do not hold distances %v / %v (eps %v)",
				i, s.ub[i], s.lb[i], math.Sqrt(da2), math.Sqrt(other2), s.eps)
		case s.ub[i]+s.eps < s.lb[i]:
			tight++
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.passes++
	l.tight += tight
	if l.fail == nil {
		l.fail = fail
	}
}

// sameResult compares two clusterings bit for bit.
func sameResult(got, want *Result) error {
	if got.K() != want.K() {
		return fmt.Errorf("K %d vs %d", got.K(), want.K())
	}
	for i := range want.Assign {
		if got.Assign[i] != want.Assign[i] {
			return fmt.Errorf("assign[%d] = %d, want %d", i, got.Assign[i], want.Assign[i])
		}
	}
	for c := range want.Centroids {
		if got.Centroids[c] != want.Centroids[c] {
			return fmt.Errorf("centroid %d = %v, want %v", c, got.Centroids[c], want.Centroids[c])
		}
	}
	return nil
}

// compareBounded runs KMeans with the bounds and with Brute on the same
// input and requires the same passes, the same assignment after every pass
// (checked by the hook) and the same final clustering bit for bit. It
// returns how many point-passes ended with bounds tight enough to skip.
func compareBounded(t testing.TB, log *passLog, pts []geom.Point, opt Options) int {
	t.Helper()
	log.reset()
	opt.Brute = false
	got, err := KMeans(pts, opt)
	if err != nil {
		t.Fatal(err)
	}
	passes, tight, fail := log.passes, log.tight, log.fail
	log.reset()
	opt.Brute = true
	want, err := KMeans(pts, opt)
	if err != nil {
		t.Fatal(err)
	}
	if fail == nil {
		fail = log.fail
	}
	if fail == nil && passes != log.passes {
		fail = fmt.Errorf("%d Lloyd passes, Brute ran %d", passes, log.passes)
	}
	if fail == nil {
		fail = sameResult(got, want)
	}
	if fail != nil {
		t.Fatalf("n=%d target=%d seed=%d workers=%d: %v", len(pts), opt.TargetSize, opt.Seed, opt.Workers, fail)
	}
	return tight
}

// boundsCases are the point sets of the oracle test: the paper's designs
// plus the shapes that stress the bounds — clumps, uniform noise, a near-
// zero extent, an exact line, heavy duplication and a lattice whose
// integer coordinates make exact distance ties common.
func boundsCases(t testing.TB) map[string][]geom.Point {
	cases := map[string][]geom.Point{
		"clumped": clumpedPoints(2500, 41),
		"random":  randomPoints(1800, 43),
	}
	for _, d := range bench.Suite() {
		p, err := bench.Generate(d, 1)
		if err != nil {
			t.Fatal(err)
		}
		cases[d.ID] = p.Sinks
	}
	rng := rand.New(rand.NewSource(47))
	aniso := make([]geom.Point, 1500)
	for i := range aniso {
		aniso[i] = geom.Pt(rng.Float64()*1000, 500+rng.Float64()*1e-7)
	}
	cases["anisotropic"] = aniso
	line := make([]geom.Point, 1200)
	for i := range line {
		x := float64(rng.Intn(4000)) / 4
		line[i] = geom.Pt(x, 0.5*x+3)
	}
	cases["collinear"] = line
	dups := make([]geom.Point, 1600)
	for i := range dups {
		if i < 40 {
			dups[i] = geom.Pt(rng.Float64()*600, rng.Float64()*600)
		} else {
			dups[i] = dups[rng.Intn(40)]
		}
	}
	cases["duplicates"] = dups
	lattice := make([]geom.Point, 0, 41*41)
	for x := 0; x <= 40; x++ {
		for y := 0; y <= 40; y++ {
			lattice = append(lattice, geom.Pt(float64(x), float64(y)))
		}
	}
	cases["ties"] = lattice
	return cases
}

// TestBoundedLloydMatchesBrute pins the contract of the Hamerly bounds: the
// bounded passes assign every point, after every pass, exactly where the
// unbounded bruteNearest scan does, run the same number of passes and end
// on the same centroids bit for bit — across the paper's designs and the
// degenerate shapes, k from 2 to 200 and one or two workers.
func TestBoundedLloydMatchesBrute(t *testing.T) {
	var log passLog
	log.watch(t)
	ks := []int{2, 17, 200, 3, 5, 60}
	for name, pts := range boundsCases(t) {
		tight := 0
		for j, k := range ks {
			// The large designs (the oracle scan is O(n·k) per pass) and
			// -short runs take the first three.
			if k > len(pts) || (len(pts) > 4000 || testing.Short()) && j >= 3 {
				continue
			}
			opt := Options{
				TargetSize: (len(pts) + k - 1) / k, MaxIter: 40, Seed: int64(j + 1),
				Workers: 1 + j%2, Balance: k > 10,
			}
			tight += compareBounded(t, &log, pts, opt)
		}
		if tight == 0 {
			t.Errorf("%s: no point ever had bounds tight enough to skip its search", name)
		}
	}
}

// TestBoundedDualLevelMatchesBrute runs the whole hierarchy, cap-aware
// bisections included, with the per-pass oracle check on.
func TestBoundedDualLevelMatchesBrute(t *testing.T) {
	var log passLog
	log.watch(t)
	p, err := bench.Generate(bench.Suite()[0], 2)
	if err != nil {
		t.Fatal(err)
	}
	opt := DualOptions{
		HighSize: 800, LowSize: 30, Seed: 3, MaxIter: 40, Workers: 2,
		CapOf:    func(s, c geom.Point) float64 { return 1 + 0.2*s.Dist(c) },
		CapLimit: 20,
	}
	got, err := DualLevel(p.Sinks, opt)
	if err != nil {
		t.Fatal(err)
	}
	passes := log.passes
	opt.Brute = true
	want, err := DualLevel(p.Sinks, opt)
	if err != nil {
		t.Fatal(err)
	}
	if log.fail != nil {
		t.Fatal(log.fail)
	}
	if log.passes != 2*passes {
		t.Fatalf("%d Lloyd passes bounded, %d with Brute", passes, log.passes-passes)
	}
	if got.NumLow() != want.NumLow() {
		t.Fatalf("%d low clusters, Brute has %d", got.NumLow(), want.NumLow())
	}
	for lc := range want.LowCentroids {
		if got.LowCentroids[lc] != want.LowCentroids[lc] || fmt.Sprint(got.LowSinks[lc]) != fmt.Sprint(want.LowSinks[lc]) {
			t.Fatalf("low cluster %d differs from Brute", lc)
		}
	}
}

// FuzzKMeansBounds compares bounded KMeans against Brute on small random
// point sets of assorted shape, scale and offset.
func FuzzKMeansBounds(f *testing.F) {
	f.Add(int64(1), uint16(300), uint8(9), uint8(0), int8(0), false)
	f.Add(int64(2), uint16(120), uint8(40), uint8(1), int8(-30), true)
	f.Add(int64(3), uint16(500), uint8(2), uint8(2), int8(20), false)
	f.Add(int64(4), uint16(64), uint8(64), uint8(3), int8(0), true)
	f.Add(int64(5), uint16(400), uint8(25), uint8(4), int8(-60), false)
	var log passLog
	log.watch(f)
	f.Fuzz(func(t *testing.T, seed int64, n uint16, k uint8, shape uint8, exp int8, offset bool) {
		pts := fuzzPoints(seed, 1+int(n%600), shape, math.Ldexp(1, min(4*int(exp), 400)), offset)
		kk := 1 + int(k)%len(pts)
		compareBounded(t, &log, pts, Options{
			TargetSize: (len(pts) + kk - 1) / kk, MaxIter: 1 + int(uint64(seed)%40),
			Seed: seed, Workers: 1 + int(k)%2, Balance: shape&8 != 0,
		})
	})
}

// fuzzPoints draws n points of one of five shapes, scaled by scale (down
// into subnormal squared distances, up to 1e250) and optionally moved far
// from the origin (a small extent at a large coordinate, the worst case for
// the rounding margin).
func fuzzPoints(seed int64, n int, shape uint8, scale float64, offset bool) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	var sites [6]geom.Point
	for i := range sites {
		sites[i] = geom.Pt(rng.Float64()*50, rng.Float64()*50)
	}
	pts := make([]geom.Point, n)
	for i := range pts {
		var x, y float64
		switch shape % 5 {
		case 0: // uniform
			x, y = rng.Float64()*1000, rng.Float64()*1000
		case 1: // clumps
			x = float64(rng.Intn(3))*300 + rng.NormFloat64()*20
			y = float64(rng.Intn(3))*300 + rng.NormFloat64()*20
		case 2: // integer lattice: exact ties
			x, y = float64(rng.Intn(12)), float64(rng.Intn(12))
		case 3: // duplicates of a few sites
			site := sites[rng.Intn(len(sites))]
			x, y = site.X, site.Y
		default: // near-zero vertical extent
			x, y = rng.Float64()*1000, rng.Float64()*1e-9
		}
		if offset {
			x, y = x+1e6, y-3e5
		}
		pts[i] = geom.Pt(x*scale, y*scale)
	}
	return pts
}

// TestWarmKMeansAllocatesOnlyResult pins the scratch contract of the Lloyd
// lanes, bounds included: once the scratch is warm, a KMeans call allocates
// only its escaping Result (the Result, Assign, Centroids, Members and the
// members' shared backing) and a bisect allocates nothing.
func TestWarmKMeansAllocatesOnlyResult(t *testing.T) {
	pts := clumpedPoints(3000, 51)
	opt := Options{TargetSize: 30, MaxIter: 40, Seed: 5, Workers: 1, Balance: true}
	if _, err := KMeans(pts, opt); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := KMeans(pts, opt); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 5 {
		t.Errorf("warm KMeans: %v allocations per call, want the Result's 5", allocs)
	}

	idx := make([]int, len(pts))
	for i := range idx {
		idx[i] = i
	}
	home := scratchHome(nil)
	bopt := Options{MaxIter: 40, Seed: 9, Workers: 1}
	home.km.Put(bisect(pts, idx, bopt, home))
	allocs = testing.AllocsPerRun(20, func() {
		home.km.Put(bisect(pts, idx, bopt, home))
	})
	if allocs != 0 {
		t.Errorf("warm bisect: %v allocations per call, want 0", allocs)
	}
}
