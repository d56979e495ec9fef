// Command perfbench is the dscts benchmark: it drives the engine through
// its public entry points (core.Synthesize / SynthesizeECO and serve.Server
// over loopback HTTP) on one seeded workload, checks every output, and
// prints the end-to-end metrics (or, with -trace 1, the per-layer ledger)
// as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it through run.sh from the repository root, which builds it first:
//
//	bash perfbench/run.sh --workload table2-mono --seed 1 --seconds 25 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// workloads are the benchmark's workloads and why each was chosen.
var workloads = []struct {
	name  string
	why   string
	drive func(*run) error
}{
	{"table2-mono", "The paper's flow on its own C1..C5 designs: cluster, DME, insert, refine, eval and corner do nearly all the work; serve, partition and eco do none.", runMono},
	{"xl-eco", "100k sinks in 2000-sink regions under chained ECO deltas: partition, region fan-out, stitch and incremental splice, the same kernels run as many small problems.", runXLECO},
	{"serve-http", "Loopback HTTP against serve.Server (hot-set hits, fresh keys with concurrent duplicates, ECO): the serve layers carry the hits.", runServeHTTP},
}

// runSeconds is how long one run measures when the benchmark is driven
// through BENCHMARK.json.
const runSeconds = 25

// setupReps is how many times each workload builds its set-up; setup_s is
// the median, so one slow start does not move it. Each repetition starts
// after a garbage collection (see settle), so none pays for the last.
const setupReps = 3

// goodputLimit is the fixed latency limit of goodput_rps: a request that
// fails, or needs more CPU time than the GOMAXPROCS CPUs give in this
// time, does not count. It is applied to CPU time for the reason cpuNow
// gives: a wall-clock limit would count a job in or out by how busy the
// host was.
const goodputLimit = 1000.0 // ms

// run is the state of one benchmark invocation.
type run struct {
	workload string
	seed     int64
	seconds  float64
	out      string
	workers  int
	tr       *tracer // nil unless -trace 1

	attempted int
	failed    int
	problems  []string
	m         map[string]float64
}

// problem records a correctness failure; any problem makes the run incorrect.
func (r *run) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if len(r.problems) < 20 {
		fmt.Fprintln(os.Stderr, "check failed:", msg)
	}
	r.problems = append(r.problems, msg)
}

// deadline is when the measured loop stops taking new jobs.
func (r *run) deadline(from time.Time) time.Time {
	return from.Add(time.Duration(r.seconds * float64(time.Second)))
}

func main() {
	workload := flag.String("workload", "", "workload to run: table2-mono, xl-eco or serve-http")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", runSeconds, "how long the measured loop runs")
	trace := flag.Int("trace", 0, "1 records spans and prints the per-layer metrics instead")
	out := flag.String("out", ".bench_build", "directory for the span trace")
	describe := flag.String("describe", "", "print \"benchmark\" (BENCHMARK.json) or \"ledger\" (host and layer map) as JSON and exit")
	flag.Parse()
	if *describe != "" {
		if err := printDescription(*describe); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		return
	}
	var drive func(*run) error
	for _, w := range workloads {
		if w.name == *workload {
			drive = w.drive
		}
	}
	if drive == nil {
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *workload)
		os.Exit(2)
	}
	r := &run{
		workload: *workload, seed: *seed, seconds: *seconds, out: *out,
		workers: runtime.GOMAXPROCS(0), m: map[string]float64{},
	}

	if *trace == 1 {
		r.tr = newTracer()
	}
	if err := drive(r); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", r.workload, err)
		os.Exit(1)
	}
	specs := endToEnd
	if r.tr != nil {
		specs = perLayer
		path := filepath.Join(r.out, fmt.Sprintf("trace-%s-seed%d.json", r.workload, r.seed))
		if err := os.MkdirAll(r.out, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := r.tr.writeChrome(path); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("# trace written to %s (%d spans)\n", path, len(r.tr.spans))
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	fmt.Printf("# %s seed=%d seconds=%g trace=%v workers=%d\n", r.workload, r.seed, r.seconds, r.tr != nil, r.workers)

	for _, s := range specs {
		v, ok := r.m[s.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			r.problem("metric %s was not measured", s.name)
			v = 0
		}
		metrics[s.name] = value{v, s.unit}
		fmt.Printf("%-28s %14.4f %s\n", s.name, v, s.unit)
	}
	if r.tr == nil {
		// Reported by name on every run, but not in the result line:
		// it is 0 on monolithic workloads, and end-to-end metrics must
		// never read 0. The traced ledger carries it as
		// signoff.maxcap_violations.
		fmt.Printf("%-28s %14.0f %s\n", "maxcap_violations", r.m["signoff.maxcap_violations"], "count")
	}
	correct := len(r.problems) == 0
	line, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": r.attempted, "failed": r.failed, "metrics": metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !correct {
		os.Exit(1)
	}
}

// printDescription prints BENCHMARK.json, or the ledger description
// committed as ledger.json: the host, every metric's unit and direction,
// and which end-to-end metric each per-layer metric should move.
func printDescription(what string) error {
	type entry struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
		Moves  string   `json:"moves,omitempty"`
	}
	conv := func(specs []metricSpec, bounds bool, moves bool) []entry {
		var out []entry
		for _, s := range specs {
			e := entry{Name: s.name, Unit: s.unit, Better: s.better}
			if bounds {
				e.Bound = &s.bound
			}
			if moves {
				e.Moves = s.moves
			}
			out = append(out, e)
		}
		return out
	}
	type why struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	var ws []why
	for _, w := range workloads {
		ws = append(ws, why{w.name, w.why})
	}
	var desc any
	switch what {
	case "benchmark":
		desc = struct {
			Command    []string `json:"command"`
			Paths      []string `json:"paths"`
			RunSeconds int      `json:"run_seconds"`
			Workloads  []why    `json:"workloads"`
			EndToEnd   []entry  `json:"end_to_end"`
			PerLayer   []entry  `json:"per_layer"`
		}{[]string{"bash", "perfbench/run.sh"}, []string{"perfbench"}, runSeconds, ws,
			conv(endToEnd, true, false), conv(perLayer, false, false)}
	case "ledger":
		desc = map[string]any{
			"host": map[string]any{
				"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
				"go": runtime.Version(), "cpu": cpuModel(),
			},
			"workloads":  ws,
			"end_to_end": conv(endToEnd, true, false),
			"per_layer":  conv(perLayer, false, true),
			"baselines": "The 1-CPU BENCH_*.json files and the cismoke gates are left as they are; " +
				"they are not baselines of this benchmark.",
		}
	default:
		return fmt.Errorf("unknown -describe %q (want benchmark or ledger)", what)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(desc)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MB, falling
// back to the Go runtime's total obtained memory where /proc is missing.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs need not be sorted; it is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// memDelta snapshots the runtime's allocation counters around a measured
// loop and reports them per job.
type memDelta struct{ before runtime.MemStats }

func startMem() *memDelta {
	d := &memDelta{}
	runtime.ReadMemStats(&d.before)
	return d
}

func (d *memDelta) report(r *run, jobs int) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	n := float64(max(jobs, 1))
	r.m["runtime.alloc_mb_per_job"] = float64(after.TotalAlloc-d.before.TotalAlloc) / (1 << 20) / n
	r.m["runtime.allocs_per_job"] = float64(after.Mallocs-d.before.Mallocs) / n
	r.m["runtime.gc_cycles"] = float64(after.NumGC - d.before.NumGC)
	r.m["runtime.gc_pause_ms"] = float64(after.PauseTotalNs-d.before.PauseTotalNs) / 1e6
}

// cpuNow is the CPU time the process has used so far, on all its threads.
// The benchmark times work with it rather than with the wall clock: on a
// shared host the wall clock also runs while the host has given the CPUs
// to someone else, which varies from run to run, and the guest kernel
// keeps that time (steal) out of the process's CPU time.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// settle collects the garbage of what ran before, outside any measured
// interval, so a set-up or a measured loop does not pay for it.
func settle() { runtime.GC() }

// closedLoop accumulates the per-job costs of a closed loop with one
// caller, where a request is a job. A job's cost is the CPU time the
// process spent while it ran; with one job at a time that is the job's
// own work on every worker thread, plus the runtime's share (GC) of it.
//
// Jobs are grouped by kind — the same design, options and request type —
// and the latency quantiles are taken over the run's jobs with each job
// counted at the mean cost of its kind. A garbage collection costs tens of
// milliseconds on these heaps and lands on whichever job is running, and
// the quantiles of a fixed mix sit where one kind meets the next, so a
// quantile of the raw costs moves with where the collections fell; the
// mean of a kind's repeats charges each kind its share of them.
type closedLoop struct {
	kind []string  // kind of each job that finished OK
	cpu  []float64 // CPU time of the same jobs, ms
	wall []float64 // their wall time, ms
	// traced/untraced CPU time and job counts, for trace.overhead_pct.
	busy  [2]float64
	count [2]int
}

func (c *closedLoop) add(kind string, wall, cpu time.Duration, traced bool) {
	c.kind = append(c.kind, kind)
	c.cpu = append(c.cpu, ms(cpu))
	c.wall = append(c.wall, ms(wall))
	i := 0
	if traced {
		i = 1
	}
	c.busy[i] += ms(cpu)
	c.count[i]++
}

// report fills the latency and throughput metrics of a closed loop.
func (c *closedLoop) report(r *run) {
	busy := c.busy[0] + c.busy[1]
	good := 0
	for _, v := range c.cpu {
		if v <= goodputLimit*float64(r.workers) {
			good++
		}
	}
	r.m["jobs_per_s"] = float64(len(c.cpu)) / (busy / 1e3)
	r.m["goodput_rps"] = float64(good) / (busy / 1e3)
	byKind := map[string][]float64{}
	for i, k := range c.kind {
		byKind[k] = append(byKind[k], c.cpu[i])
	}
	typical := make([]float64, len(c.kind))
	for i, k := range c.kind {
		typical[i] = mean(byKind[k])
	}
	r.m["job_ms.p50"] = quantile(typical, 0.5)
	r.m["job_ms.p90"] = quantile(typical, 0.9)
	r.m["req_ms.p50"] = quantile(typical, 0.5)
	r.m["req_ms.p99"] = quantile(typical, 0.99)
	if c.count[0] > 0 && c.count[1] > 0 {
		untraced := float64(c.count[0]) / c.busy[0]
		traced := float64(c.count[1]) / c.busy[1]
		r.m["trace.overhead_pct"] = 100 * (untraced - traced) / untraced
	}
	fmt.Printf("# %d jobs ok (%d traced) of %d kinds, %d failed\n", len(c.cpu), c.count[1], len(byKind), r.failed)
	fmt.Printf("# CPU time over all jobs: p50 %.2f ms, p90 %.2f ms, p99 %.2f ms\n",
		quantile(c.cpu, 0.5), quantile(c.cpu, 0.9), quantile(c.cpu, 0.99))
	fmt.Printf("# wall clock over all jobs: %.2f jobs/s, p50 %.2f ms, p90 %.2f ms, p99 %.2f ms\n",
		float64(len(c.wall))/(sum(c.wall)/1e3), quantile(c.wall, 0.5), quantile(c.wall, 0.9), quantile(c.wall, 0.99))
}

// reportCoverage fills trace.coverage from the job spans and returns the
// jobs' summed self time (job span minus the time its children cover), ms.
func (r *run) reportCoverage() (selfMS float64) {
	jobMS, cov := r.tr.jobCoverage()
	if jobMS > 0 {
		r.m["trace.coverage"] = cov / jobMS
	}
	return jobMS - cov
}

// zeroUnset sets every per-layer metric this workload does not exercise to
// 0, so the traced ledger always carries the full metric set.
func (r *run) zeroUnset() {
	for _, s := range perLayer {
		if _, ok := r.m[s.name]; !ok {
			r.m[s.name] = 0
		}
	}
}
