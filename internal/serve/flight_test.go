package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"
	"time"
)

// newFlightQueue is an in-process queue with an optional fault script.
func newFlightQueue(t *testing.T, spec string, cfg Config) *Queue {
	t.Helper()
	if spec != "" {
		cfg.Faults = mustFaults(t, spec, 1)
	}
	q := NewQueue(cfg)
	t.Cleanup(q.Close)
	return q
}

func mustSubmit(t *testing.T, q *Queue, req *Request) *Job {
	t.Helper()
	j, err := q.Submit(req, KindSynthesize)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func awaitJob(t *testing.T, j *Job) JobInfo {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(2 * time.Minute):
		t.Fatalf("job %s never finished", j.ID())
	}
	return j.Info()
}

func dispatched(q *Queue) int64 {
	var n int64
	for _, c := range q.Stats().QoS.Classes {
		n += c.Dispatched
	}
	return n
}

// sameJSON compares two results by their encodings.
func sameJSON(t *testing.T, a, b *Result) bool {
	t.Helper()
	ja, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Equal(ja, jb)
}

// TestSingleFlightCoalesces: N concurrent identical submissions run the
// flow once. The first leads; the other N-1 attach to it without taking a
// run slot and finish with its result as coalesced hits, each in the form
// its own request asked for.
func TestSingleFlightCoalesces(t *testing.T) {
	// The leader's first step is held, so every duplicate arrives while it
	// runs.
	q := newFlightQueue(t, "delay@serve.job:nth=1:300ms", Config{MaxRunning: 2, MaxQueued: 8, Workers: 1})
	const n = 6
	jobs := make([]*Job, n)
	for i := range jobs {
		jobs[i] = mustSubmit(t, q, &Request{Design: "C4", IncludeSinkDelays: i%2 == 0})
	}
	infos := make([]JobInfo, n)
	for i, j := range jobs {
		infos[i] = awaitJob(t, j)
		if infos[i].State != StateDone {
			t.Fatalf("job %d ended %s: %s", i, infos[i].State, infos[i].Error)
		}
	}
	if infos[0].CacheHit || infos[0].Coalesced {
		t.Fatalf("leader reported hit=%v coalesced=%v", infos[0].CacheHit, infos[0].Coalesced)
	}
	lead := infos[0].Result
	if len(lead.Metrics.SinkDelays) == 0 {
		t.Fatal("leader asked for sink delays and got none")
	}
	for i := 1; i < n; i++ {
		if !infos[i].CacheHit || !infos[i].Coalesced {
			t.Errorf("job %d: hit=%v coalesced=%v, want both", i, infos[i].CacheHit, infos[i].Coalesced)
		}
		if !sameJSON(t, infos[i].Result, lead.view(jobs[i].req.IncludeSinkDelays)) {
			t.Errorf("job %d result differs from the leader's", i)
		}
	}
	st := q.Stats()
	if got := dispatched(q); got != 1 {
		t.Errorf("%d jobs ran the flow, want exactly 1", got)
	}
	if st.Jobs.Coalesced != n-1 || st.Jobs.Done != n || st.Jobs.Submitted != n {
		t.Errorf("jobs %+v, want coalesced=%d done=submitted=%d", st.Jobs, n-1, n)
	}
	// A late identical request hits the cache the leader filled.
	late := awaitJob(t, mustSubmit(t, q, &Request{Design: "C4"}))
	if !late.CacheHit || late.Coalesced {
		t.Errorf("late request: hit=%v coalesced=%v, want a plain hit", late.CacheHit, late.Coalesced)
	}
}

// TestSingleFlightLeaderFailureRerunsFollowers: a leader that ends in
// anything but done leaves its followers to run afresh — one of them leads
// a new run, the rest follow it (or hit the cache, should the new run
// already have finished) — and every follower succeeds. No follower
// inherits the leader's cancellation, panic or deadline.
func TestSingleFlightLeaderFailureRerunsFollowers(t *testing.T) {
	cases := []struct {
		name string
		// spec's first rule holds a blocker job so the followers attach
		// while the leader is still queued; its second rule (call 2) is the
		// leader's.
		spec    string
		timeout float64
		cancel  bool
		want    JobState
	}{
		{"cancelled", "delay@serve.job:nth=1:200ms;delay@serve.job:nth=2:30s", 0, true, StateCancelled},
		{"panicked", "delay@serve.job:nth=1:200ms;panic@serve.job:nth=2", 0, false, StateFailed},
		{"hung", "delay@serve.job:nth=1:200ms;hang@serve.job:nth=2:400ms", 50, false, StateFailed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q := newFlightQueue(t, tc.spec, Config{
				MaxRunning: 1, MaxQueued: 8, Workers: 1, WatchdogGrace: 50 * time.Millisecond,
			})
			blocker := mustSubmit(t, q, &Request{Design: "C5"})
			leader := mustSubmit(t, q, &Request{Design: "C1", TimeoutMS: tc.timeout})
			followers := make([]*Job, 3)
			for i := range followers {
				followers[i] = mustSubmit(t, q, &Request{Design: "C1", IncludeSinkDelays: i == 1})
			}
			if tc.cancel {
				for leader.Info().State != StateRunning {
					time.Sleep(5 * time.Millisecond)
				}
				leader.Cancel()
			}
			if info := awaitJob(t, leader); info.State != tc.want {
				t.Fatalf("leader ended %s (%s), want %s", info.State, info.Error, tc.want)
			}
			reran := 0
			var first *Result
			for i, f := range followers {
				info := awaitJob(t, f)
				if info.State != StateDone {
					t.Fatalf("follower %d ended %s: %s", i, info.State, info.Error)
				}
				if !info.CacheHit {
					reran++
				}
				if first == nil {
					first = info.Result.view(false)
				} else if !sameJSON(t, info.Result.view(false), first) {
					t.Errorf("follower %d result differs", i)
				}
			}
			if reran != 1 {
				t.Errorf("%d followers re-ran the flow, want 1", reran)
			}
			awaitJob(t, blocker)
			if got := dispatched(q); got != 3 {
				t.Errorf("%d jobs ran, want 3 (blocker, leader, one re-run)", got)
			}
		})
	}
}

// TestCancelFollowerSparesLeader: cancelling a follower finishes it as
// cancelled at once and leaves its leader running to completion.
func TestCancelFollowerSparesLeader(t *testing.T) {
	q := newFlightQueue(t, "delay@serve.job:nth=1:300ms", Config{MaxRunning: 1, MaxQueued: 4, Workers: 1})
	leader := mustSubmit(t, q, &Request{Design: "C1"})
	follower := mustSubmit(t, q, &Request{Design: "C1"})
	follower.Cancel()
	select {
	case <-follower.Done():
	case <-leader.Done():
		t.Fatal("the cancelled follower waited for its leader")
	}
	if info := follower.Info(); info.State != StateCancelled {
		t.Fatalf("follower ended %s", info.State)
	}
	if info := awaitJob(t, leader); info.State != StateDone || info.CacheHit {
		t.Fatalf("leader ended %s (hit %v): %s", info.State, info.CacheHit, info.Error)
	}
	if st := q.Stats().Jobs; st.Cancelled != 1 || st.Done != 1 || st.Coalesced != 0 {
		t.Errorf("jobs %+v, want one cancelled, one done, none coalesced", st)
	}
}

// TestCloseFinishesFollowers: closing the queue under a waiting flight
// leaves no follower behind — every admitted job is terminal once Close
// returns, and the accounting identity holds.
func TestCloseFinishesFollowers(t *testing.T) {
	q := NewQueue(Config{MaxRunning: 1, MaxQueued: 4, Workers: 1,
		Faults: mustFaults(t, "delay@serve.job:nth=1:30s", 1)})
	jobs := []*Job{mustSubmit(t, q, &Request{Design: "C1"})}
	for i := 0; i < 3; i++ {
		jobs = append(jobs, mustSubmit(t, q, &Request{Design: "C1"}))
	}
	q.Close()
	for i, j := range jobs {
		select {
		case <-j.Done():
		default:
			t.Fatalf("job %d not finished after Close", i)
		}
	}
	st := q.Stats().Jobs
	if st.Submitted != int64(len(jobs)) || st.Cancelled != int64(len(jobs)) || st.Queued != 0 {
		t.Errorf("jobs %+v, want all %d cancelled", st, len(jobs))
	}
}

// TestFollowersCountAgainstBounds: a follower takes no run slot, but it is
// a queued job like any other: it holds a MaxQueued slot and a tenant-quota
// unit, so duplicates of an in-flight key are rejected past either bound
// and jobs.queued never exceeds max_queued. A leader that fails hands each
// follower's unit on to its re-run; once everything has finished no unit
// is left held.
func TestFollowersCountAgainstBounds(t *testing.T) {
	awaitRunning := func(j *Job) {
		for j.Info().State != StateRunning {
			time.Sleep(5 * time.Millisecond)
		}
	}
	checkReleased := func(q *Queue) {
		t.Helper()
		q.sched.mu.Lock()
		held, tenants := len(q.sched.held), len(q.sched.tenants)
		q.sched.mu.Unlock()
		if held != 0 || tenants != 0 {
			t.Errorf("%d followers still held, %d tenants still outstanding", held, tenants)
		}
	}

	t.Run("max_queued", func(t *testing.T) {
		q := newFlightQueue(t, "delay@serve.job:nth=1:500ms", Config{MaxRunning: 1, MaxQueued: 2, Workers: 1})
		leader := mustSubmit(t, q, &Request{Design: "C1"})
		awaitRunning(leader)
		followers := []*Job{mustSubmit(t, q, &Request{Design: "C1"}), mustSubmit(t, q, &Request{Design: "C1"})}
		if _, err := q.Submit(&Request{Design: "C1"}, KindSynthesize); !errors.Is(err, ErrQueueFull) {
			t.Fatalf("duplicate past max_queued: %v, want ErrQueueFull", err)
		}
		if _, err := q.Submit(&Request{Design: "C4"}, KindSynthesize); !errors.Is(err, ErrQueueFull) {
			t.Fatalf("fresh key with the queue full of followers: %v, want ErrQueueFull", err)
		}
		st := q.Stats().Jobs
		if st.Queued != 2 || st.RejectedFull != 2 || !q.Saturated() {
			t.Errorf("jobs %+v saturated=%v, want 2 queued, 2 rejected full, saturated", st, q.Saturated())
		}
		for _, f := range append(followers, leader) {
			if info := awaitJob(t, f); info.State != StateDone {
				t.Fatalf("%s ended %s: %s", f.ID(), info.State, info.Error)
			}
		}
		checkReleased(q)
	})

	t.Run("tenant_quota", func(t *testing.T) {
		q := newFlightQueue(t, "delay@serve.job:nth=1:500ms", Config{MaxRunning: 1, MaxQueued: 8, Workers: 1, TenantQuota: 2})
		leader := mustSubmit(t, q, &Request{Design: "C1", Tenant: "a"})
		follower := mustSubmit(t, q, &Request{Design: "C1", Tenant: "a"})
		if _, err := q.Submit(&Request{Design: "C1", Tenant: "a"}, KindSynthesize); !errors.Is(err, ErrQuota) {
			t.Fatalf("duplicate past the tenant quota: %v, want ErrQuota", err)
		}
		other := mustSubmit(t, q, &Request{Design: "C1", Tenant: "b"})
		for _, j := range []*Job{leader, follower, other} {
			if info := awaitJob(t, j); info.State != StateDone {
				t.Fatalf("%s ended %s: %s", j.ID(), info.State, info.Error)
			}
		}
		if !other.Info().Coalesced || !follower.Info().Coalesced {
			t.Error("duplicates within their quota did not coalesce")
		}
		checkReleased(q)
	})

	t.Run("failed_leader", func(t *testing.T) {
		q := newFlightQueue(t, "delay@serve.job:nth=1:30s", Config{MaxRunning: 1, MaxQueued: 2, Workers: 1, TenantQuota: 3})
		leader := mustSubmit(t, q, &Request{Design: "C1"})
		awaitRunning(leader)
		followers := []*Job{mustSubmit(t, q, &Request{Design: "C1"}), mustSubmit(t, q, &Request{Design: "C1"})}
		leader.Cancel()
		for _, f := range followers {
			if info := awaitJob(t, f); info.State != StateDone {
				t.Fatalf("%s ended %s: %s", f.ID(), info.State, info.Error)
			}
		}
		if st := q.Stats().Jobs; st.Submitted != 3 || st.Rejected != 0 {
			t.Errorf("jobs %+v, want the re-run inside the followers' slots", st)
		}
		checkReleased(q)
	})
}
