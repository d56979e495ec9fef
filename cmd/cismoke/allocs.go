package main

// The allocation-regression gate: `cismoke allocs baseline.json new.json`
// compares a fresh `benchgen -bench` run against the committed
// BENCH_parallel.json and fails when any stage's allocs_per_op or
// bytes_per_op grew by more than the threshold. Unlike wall-clock, Go's
// allocation accounting is machine-transferable — the same binary allocates
// the same amounts on any host — which is exactly why the generic
// `benchgen -compare` ratio gate leaves these columns alone and this
// subcommand gates them instead. Both reports must have been recorded at the
// same GOMAXPROCS: the workersN stages allocate per worker.

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

// decodeFile reads one JSON report by path; allocs is the only subcommand
// that takes two positional reports, so the stdin-capable decode helper
// does not fit.
func decodeFile(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: invalid JSON: %w", path, err)
	}
	return nil
}

// parallelAllocView mirrors the BENCH_parallel.json fields this gate reads.
// GOMAXPROCS is a pointer so a report without the field is told apart from
// one recorded at some value.
type parallelAllocView struct {
	GOMAXPROCS *int `json:"gomaxprocs"`
	Stages     map[string]struct {
		BytesPerOp  int64 `json:"bytes_per_op"`
		AllocsPerOp int64 `json:"allocs_per_op"`
	} `json:"stages"`
}

func cmdAllocs(args []string) error {
	fs := flag.NewFlagSet("allocs", flag.ExitOnError)
	maxRegress := fs.Float64("max-regress", 15, "maximum allowed growth per stage, percent")
	// Absolute slack floors keep near-zero warm stages from tripping the
	// relative gate on scheduler noise: 15% of a 200-alloc stage is 30
	// allocs, well inside run-to-run jitter from pool timing.
	slackAllocs := fs.Int64("slack-allocs", 128, "absolute allocs_per_op growth always tolerated")
	slackBytes := fs.Int64("slack-bytes", 65536, "absolute bytes_per_op growth always tolerated")
	fs.Parse(args)
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: cismoke allocs [-max-regress pct] baseline.json new.json")
	}
	var base, cur parallelAllocView
	if err := decodeFile(fs.Arg(0), &base); err != nil {
		return err
	}
	if err := decodeFile(fs.Arg(1), &cur); err != nil {
		return err
	}
	// The workersN stages allocate per worker (goroutines, per-worker
	// scratch), so their rows are only comparable at one GOMAXPROCS.
	switch {
	case base.GOMAXPROCS == nil || cur.GOMAXPROCS == nil:
		return fmt.Errorf("%s or %s does not record gomaxprocs", fs.Arg(0), fs.Arg(1))
	case *base.GOMAXPROCS != *cur.GOMAXPROCS:
		return fmt.Errorf("gomaxprocs differs: baseline %s recorded at %d, new %s at %d; re-run benchgen -bench with GOMAXPROCS=%d",
			fs.Arg(0), *base.GOMAXPROCS, fs.Arg(1), *cur.GOMAXPROCS, *base.GOMAXPROCS)
	}
	if len(base.Stages) == 0 || len(cur.Stages) == 0 {
		return fmt.Errorf("empty stage table (baseline %d, new %d)", len(base.Stages), len(cur.Stages))
	}

	names := make([]string, 0, len(base.Stages))
	for name := range base.Stages {
		if _, ok := cur.Stages[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return fmt.Errorf("no common stages between %s and %s", fs.Arg(0), fs.Arg(1))
	}

	var regressions []string
	gate := func(stage, metric string, was, now, slack int64) {
		limit := was + int64(float64(was)**maxRegress/100)
		if s := was + slack; s > limit {
			limit = s
		}
		if now > limit {
			regressions = append(regressions,
				fmt.Sprintf("%s %s: %d -> %d (limit %d, +%.0f%% or +%d)",
					stage, metric, was, now, limit, *maxRegress, slack))
		}
	}
	for _, name := range names {
		was, now := base.Stages[name], cur.Stages[name]
		gate(name, "allocs_per_op", was.AllocsPerOp, now.AllocsPerOp, *slackAllocs)
		gate(name, "bytes_per_op", was.BytesPerOp, now.BytesPerOp, *slackBytes)
	}
	if len(regressions) > 0 {
		for _, r := range regressions {
			fmt.Printf("  REGRESSION %s\n", r)
		}
		return fmt.Errorf("%d allocation regression(s) beyond %.0f%%", len(regressions), *maxRegress)
	}
	fmt.Printf("allocs gate: %d stages within %.0f%% of baseline\n", len(names), *maxRegress)
	return nil
}
