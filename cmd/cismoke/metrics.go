package main

import (
	"flag"
	"fmt"
	"math"
	"strings"
)

// metricsView mirrors the report fields the metrics gate asserts on. Both
// BENCH_serve.json (benchgen -load) and BENCH_chaos.json (-load -chaos)
// carry this shape: a server_stats snapshot plus a /metrics scrape taken at
// the same quiescent moment, so the two must agree sample-for-sample.
type metricsView struct {
	Stats struct {
		UptimeSeconds float64 `json:"uptime_seconds"`
		Jobs          struct {
			Submitted      int64 `json:"submitted"`
			Rejected       int64 `json:"rejected"`
			RejectedFull   int64 `json:"rejected_full"`
			RejectedLarge  int64 `json:"rejected_large"`
			RejectedClosed int64 `json:"rejected_closed"`
			RejectedQuota  int64 `json:"rejected_quota"`
			Queued         int64 `json:"queued"`
			Running        int64 `json:"running"`
			Done           int64 `json:"done"`
			Failed         int64 `json:"failed"`
			Cancelled      int64 `json:"cancelled"`
			Panics         int64 `json:"panics"`
			Timeouts       int64 `json:"timeouts"`
			WatchdogKills  int64 `json:"watchdog_kills"`
			Abandoned      int64 `json:"abandoned_workers"`
			Deduped        int64 `json:"deduped"`
			Coalesced      int64 `json:"coalesced"`
		} `json:"jobs"`
		Cache struct {
			Entries     int64 `json:"entries"`
			Hits        int64 `json:"hits"`
			Misses      int64 `json:"misses"`
			Evictions   int64 `json:"evictions"`
			Corruptions int64 `json:"corruptions"`
			EncodeDrops int64 `json:"encode_drops"`
		} `json:"cache"`
		ECOBases struct {
			Entries int64 `json:"entries"`
			Hits    int64 `json:"hits"`
			Misses  int64 `json:"misses"`
		} `json:"eco_bases"`
		Faults     map[string]int64 `json:"faults"`
		LastPanics []struct {
			JobID string `json:"job_id"`
		} `json:"last_panics"`
	} `json:"server_stats"`
	Metrics *struct {
		Families    int                `json:"families"`
		FamilyNames []string           `json:"family_names"`
		Samples     map[string]float64 `json:"samples"`
	} `json:"metrics"`
}

// requiredFamilies must appear in every scrape regardless of traffic: the
// queue/cache counters are registered eagerly and the runtime/build gauges
// come with the registry.
var requiredFamilies = []string{
	"dscts_build_info",
	"dscts_cache_encode_drops_total",
	"dscts_cache_hits_total",
	"dscts_http_request_duration_seconds",
	"dscts_job_duration_seconds",
	"dscts_jobs_rejected_total",
	"dscts_jobs_submitted_total",
	"dscts_jobs_total",
	"dscts_qos_dispatched_total",
	"dscts_qos_pending",
	"dscts_store_warm_loaded_total",
	"dscts_store_writes_total",
	"dscts_uptime_seconds",
	"go_goroutines",
	"go_heap_alloc_bytes",
}

// panicRingSize mirrors the serve-side panic retention ring: /stats keeps
// at most this many PanicRecords while the counter keeps growing.
const panicRingSize = 8

// cmdMetrics cross-checks the /metrics scrape embedded in a load or chaos
// report against the server_stats section of the same report. The two come
// from the same atomics, so any disagreement means the exporter wiring —
// not the workload — regressed: a renamed family, a counter read from the
// wrong field, a histogram missing observations.
func cmdMetrics(args []string) error {
	fs := flag.NewFlagSet("metrics", flag.ExitOnError)
	minFamilies := fs.Int("min-families", 25, "minimum distinct metric families the scrape must export")
	fs.Parse(args)
	var r metricsView
	if err := decode(fs, "BENCH_serve.json", &r); err != nil {
		return err
	}
	m := r.Metrics
	if m == nil {
		return fmt.Errorf("no metrics section in the report (daemon run without Config.Metrics?)")
	}
	if m.Families < *minFamilies {
		return fmt.Errorf("only %d metric families exported, want >= %d", m.Families, *minFamilies)
	}
	if len(m.FamilyNames) != m.Families {
		return fmt.Errorf("families = %d but %d family names listed", m.Families, len(m.FamilyNames))
	}
	have := make(map[string]bool, len(m.FamilyNames))
	for _, f := range m.FamilyNames {
		have[f] = true
	}
	var bad []string
	for _, f := range requiredFamilies {
		if !have[f] {
			bad = append(bad, fmt.Sprintf("family %s missing from the scrape", f))
		}
	}

	// Counter-for-counter equality with /stats. Missing samples count as
	// mismatches: every name here is registered eagerly.
	j, c, e := r.Stats.Jobs, r.Stats.Cache, r.Stats.ECOBases
	eq := []struct {
		sample string
		want   int64
	}{
		{`dscts_jobs_submitted_total`, j.Submitted},
		{`dscts_jobs_rejected_total{reason="queue_full"}`, j.RejectedFull},
		{`dscts_jobs_rejected_total{reason="too_large"}`, j.RejectedLarge},
		{`dscts_jobs_rejected_total{reason="closed"}`, j.RejectedClosed},
		{`dscts_jobs_rejected_total{reason="quota"}`, j.RejectedQuota},
		{`dscts_jobs_total{state="done"}`, j.Done},
		{`dscts_jobs_total{state="failed"}`, j.Failed},
		{`dscts_jobs_total{state="cancelled"}`, j.Cancelled},
		{`dscts_jobs_panics_total`, j.Panics},
		{`dscts_jobs_timeouts_total`, j.Timeouts},
		{`dscts_jobs_watchdog_kills_total`, j.WatchdogKills},
		{`dscts_jobs_abandoned_workers`, j.Abandoned},
		{`dscts_jobs_queue_depth`, j.Queued},
		{`dscts_jobs_running`, j.Running},
		{`dscts_idempotent_replays_total`, j.Deduped},
		{`dscts_jobs_coalesced_total`, j.Coalesced},
		{`dscts_cache_hits_total`, c.Hits},
		{`dscts_cache_misses_total`, c.Misses},
		{`dscts_cache_evictions_total`, c.Evictions},
		{`dscts_cache_corruptions_total`, c.Corruptions},
		{`dscts_cache_encode_drops_total`, c.EncodeDrops},
		{`dscts_cache_entries`, c.Entries},
		{`dscts_eco_base_hits_total`, e.Hits},
		{`dscts_eco_base_misses_total`, e.Misses},
		{`dscts_eco_base_entries`, e.Entries},
	}
	for _, chk := range eq {
		got, ok := m.Samples[chk.sample]
		switch {
		case !ok:
			bad = append(bad, fmt.Sprintf("sample %s missing from the scrape", chk.sample))
		case math.Abs(got-float64(chk.want)) > 1e-6:
			bad = append(bad, fmt.Sprintf("%s = %g but /stats says %d", chk.sample, got, chk.want))
		}
	}

	// The rejection reasons are a partition of the rejected total.
	if sum := j.RejectedFull + j.RejectedLarge + j.RejectedClosed + j.RejectedQuota; sum != j.Rejected {
		bad = append(bad, fmt.Sprintf("rejection reasons sum to %d but rejected = %d", sum, j.Rejected))
	}
	// Submission accounting: a rejection is NOT a submission — every
	// rejection path (too-large, closed, full, quota) returns before the
	// submitted counter, and idempotent replays never reach it — so every
	// submitted job is in exactly one terminal-or-live state.
	if sum := j.Done + j.Failed + j.Cancelled + j.Queued + j.Running; sum != j.Submitted {
		bad = append(bad, fmt.Sprintf("job states sum to %d but submitted = %d (a job escaped the state machine)", sum, j.Submitted))
	}
	// Every finished job lands in exactly one latency histogram series.
	hit, miss := m.Samples[`dscts_job_duration_seconds_count{cache="hit"}`], m.Samples[`dscts_job_duration_seconds_count{cache="miss"}`]
	if int64(hit+miss+0.5) != j.Done {
		bad = append(bad, fmt.Sprintf("job_duration histogram observed %g hit + %g miss jobs but done = %d", hit, miss, j.Done))
	}
	// The injected-faults counter is the sum of the per-point /stats map.
	var faults int64
	for _, n := range r.Stats.Faults {
		faults += n
	}
	if got := m.Samples[`dscts_faults_injected_total`]; math.Abs(got-float64(faults)) > 1e-6 {
		bad = append(bad, fmt.Sprintf("dscts_faults_injected_total = %g but /stats faults sum to %d", got, faults))
	}
	// The panic ring retains the most recent panicRingSize records.
	wantRing := j.Panics
	if wantRing > panicRingSize {
		wantRing = panicRingSize
	}
	if int64(len(r.Stats.LastPanics)) != wantRing {
		bad = append(bad, fmt.Sprintf("last_panics has %d records, want %d (panics = %d, ring = %d)",
			len(r.Stats.LastPanics), wantRing, j.Panics, panicRingSize))
	}
	if up := m.Samples[`dscts_uptime_seconds`]; up <= 0 {
		bad = append(bad, fmt.Sprintf("dscts_uptime_seconds = %g, want > 0", up))
	}

	if len(bad) > 0 {
		return fmt.Errorf("metrics/stats disagree:\n  %s", strings.Join(bad, "\n  "))
	}
	fmt.Printf("metrics gate: %d families, %d counters match /stats (submitted %d = done %d + failed %d + cancelled %d; %d rejections outside)\n",
		m.Families, len(eq), j.Submitted, j.Done, j.Failed, j.Cancelled, j.Rejected)
	return nil
}
