package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one traced interval: a call the benchmark made into a layer, or a
// phase the layer reported back through its public hooks.
type span struct {
	id     int
	parent int // -1 for a job span
	name   string
	req    string
	lane   int
	start  time.Time
	end    time.Time
}

func (s span) ms() float64 { return ms(s.end.Sub(s.start)) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths pay one nil check per call site.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// add records a finished span and returns its ID (-1 on a nil tracer).
func (t *tracer) add(name string, parent int, req string, lane int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{id: id, parent: parent, name: name, req: req, lane: lane, start: start, end: end})
	return id
}

// open records a span whose end is not known yet; close sets it.
func (t *tracer) open(name string, parent int, req string, start time.Time) int {
	return t.add(name, parent, req, 0, start, start)
}

func (t *tracer) close(id int, end time.Time) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].end = end
	t.mu.Unlock()
}

// sum returns the total duration in ms of the spans with the given name.
func (t *tracer) sum(name string) float64 {
	total := 0.0
	for _, s := range t.spans {
		if s.name == name {
			total += s.ms()
		}
	}
	return total
}

// count returns the number of spans with the given name.
func (t *tracer) count(name string) int {
	n := 0
	for _, s := range t.spans {
		if s.name == name {
			n++
		}
	}
	return n
}

// jobCoverage returns, over every job span (parent -1), the summed job
// time and the part of it covered by the job's direct children.
func (t *tracer) jobCoverage() (jobMS, coveredMS float64) {
	kids := map[int][]span{}
	for _, s := range t.spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], s)
		}
	}
	for _, s := range t.spans {
		if s.parent >= 0 || s.name != "job" {
			continue
		}
		jobMS += s.ms()
		coveredMS += ms(covered(s, kids[s.id]))
	}
	return jobMS, coveredMS
}

// covered returns how much of the parent's interval its children cover,
// counting overlapping children once.
func covered(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(a, b int) bool { return kids[a].start.Before(kids[b].start) })
	var total time.Duration
	var curS, curE time.Time
	for _, k := range kids {
		s, e := k.start, k.end
		if s.Before(parent.start) {
			s = parent.start
		}
		if e.After(parent.end) {
			e = parent.end
		}
		if !e.After(s) {
			continue
		}
		if curE.IsZero() || s.After(curE) {
			total += curE.Sub(curS)
			curS, curE = s, e
		} else if e.After(curE) {
			curE = e
		}
	}
	return total + curE.Sub(curS)
}

// writeChrome writes the spans as Chrome trace-event JSON (complete "X"
// events in µs), which Perfetto and chrome://tracing open directly.
func (t *tracer) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		events = append(events, event{
			Name: s.name, Ph: "X", PID: 1, TID: s.lane,
			TS:   float64(s.start.Sub(t.origin).Nanoseconds()) / 1e3,
			Dur:  float64(s.end.Sub(s.start).Nanoseconds()) / 1e3,
			Args: map[string]any{"id": s.id, "parent": s.parent, "request_id": s.req},
		})
	}
	if err := json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
