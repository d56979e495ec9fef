package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"dscts/internal/obs"
	"dscts/internal/serve"
)

// latencyStats are the classic load-test percentiles, in milliseconds.
type latencyStats struct {
	P50  float64 `json:"p50_ms"`
	P90  float64 `json:"p90_ms"`
	P99  float64 `json:"p99_ms"`
	Max  float64 `json:"max_ms"`
	Mean float64 `json:"mean_ms"`
}

// loadReport is the machine-readable BENCH_serve.json: service throughput
// and latency under concurrent replayed synthesis traffic, next to the
// queue/cache counters that explain them.
type loadReport struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`

	Jobs        int `json:"jobs"`
	Distinct    int `json:"distinct_requests"`
	Concurrency int `json:"client_concurrency"`
	MaxRunning  int `json:"max_running"`

	WallMS     float64      `json:"wall_ms"`
	Throughput float64      `json:"throughput_jobs_per_sec"`
	Latency    latencyStats `json:"latency"`
	ColdMS     latencyStats `json:"latency_cache_miss"`
	WarmMS     latencyStats `json:"latency_cache_hit"`

	Stats serve.Stats `json:"server_stats"`
	// MetricsBefore and Metrics are GET /metrics scrapes bracketing the run;
	// `cismoke metrics` cross-checks the after-run samples against Stats.
	MetricsBefore *metricsSection `json:"metrics_before,omitempty"`
	Metrics       *metricsSection `json:"metrics,omitempty"`
	Notes         []string        `json:"notes"`
}

func percentiles(ms []float64) latencyStats {
	if len(ms) == 0 {
		return latencyStats{}
	}
	sorted := append([]float64(nil), ms...)
	sort.Float64s(sorted)
	at := func(p float64) float64 {
		i := int(p * float64(len(sorted)-1))
		return sorted[i]
	}
	sum := 0.0
	for _, v := range sorted {
		sum += v
	}
	return latencyStats{
		P50: at(0.50), P90: at(0.90), P99: at(0.99),
		Max: sorted[len(sorted)-1], Mean: sum / float64(len(sorted)),
	}
}

// runLoad spins an in-process dsctsd, replays `jobs` synthesis requests
// drawn round-robin from a pool of `distinct` request shapes across C1..C5
// with `conc` concurrent clients, and writes the throughput/latency report.
func runLoad(path string, jobs, conc, distinct int) error {
	if jobs <= 0 {
		jobs = 40
	}
	if conc <= 0 {
		conc = 8
	}
	if distinct <= 0 || distinct > jobs {
		distinct = (jobs + 1) / 2
	}
	maxRunning := conc
	srv := serve.NewServer(serve.Config{
		MaxRunning: maxRunning,
		MaxQueued:  jobs + conc, // admission never the bottleneck here
		Metrics:    obs.NewRegistry(),
	})
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	defer hs.Close()
	base := "http://" + ln.Addr().String()
	client := serve.NewClient(base)
	metricsBefore, err := scrapeMetrics(base)
	if err != nil {
		return err
	}

	// The distinct request pool: the five Table II designs crossed with
	// option variants that change the result identity.
	designs := []string{"C1", "C2", "C3", "C4", "C5"}
	pool := make([]*serve.Request, distinct)
	for i := range pool {
		pool[i] = &serve.Request{
			Design: designs[i%len(designs)],
			Seed:   int64(1 + i/len(designs)),
			Options: serve.OptionsSpec{
				FanoutThreshold: []int{0, 150, 600}[i%3],
			},
		}
	}

	type sample struct {
		ms  float64
		hit bool
	}
	samples := make([]sample, jobs)
	errs := make([]error, jobs)
	var next int
	var mu sync.Mutex
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= jobs {
					return
				}
				t0 := time.Now()
				info, err := client.Synthesize(context.Background(), pool[i%distinct])
				if err == nil && info.State != serve.StateDone {
					err = fmt.Errorf("job %s ended %s (%s)", info.ID, info.State, info.Error)
				}
				if err != nil {
					errs[i] = err
					continue
				}
				samples[i] = sample{ms: float64(time.Since(t0)) / float64(time.Millisecond), hit: info.CacheHit}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("load job %d: %w", i, err)
		}
	}
	st, err := client.Stats(context.Background())
	if err != nil {
		return err
	}
	// Scrape while the daemon is quiescent (all clients joined) so the
	// sample map and the Stats snapshot describe the same moment.
	metricsAfter, err := scrapeMetrics(base)
	if err != nil {
		return err
	}

	var all, cold, warm []float64
	for _, s := range samples {
		all = append(all, s.ms)
		if s.hit {
			warm = append(warm, s.ms)
		} else {
			cold = append(cold, s.ms)
		}
	}
	rep := loadReport{
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Jobs: jobs, Distinct: distinct, Concurrency: conc, MaxRunning: maxRunning,
		WallMS:        float64(wall) / float64(time.Millisecond),
		Throughput:    float64(jobs) / wall.Seconds(),
		Latency:       percentiles(all),
		ColdMS:        percentiles(cold),
		WarmMS:        percentiles(warm),
		Stats:         *st,
		MetricsBefore: metricsBefore,
		Metrics:       metricsAfter,
		Notes: []string{
			"end-to-end HTTP sync requests against an in-process dsctsd over loopback; latency includes queueing, JSON and the synthesis itself",
			"requests are drawn round-robin from the distinct pool, so repeats past the first pass are content-addressed cache hits (an identical request that arrives while the first copy runs follows it and finishes with its result, counted as coalesced)",
			"results are worker-budget independent (bit-identical Metrics), so MaxRunning only trades latency against throughput",
		},
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("service load report -> %s\n", path)
	fmt.Printf("  %d jobs (%d distinct) x%d clients: %.1f jobs/s, p50 %.1f ms, p99 %.1f ms, cache %d/%d hits\n",
		jobs, distinct, conc, rep.Throughput, rep.Latency.P50, rep.Latency.P99,
		st.Cache.Hits, st.Cache.Hits+st.Cache.Misses)
	return nil
}
