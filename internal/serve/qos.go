package serve

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// ErrQuota is returned by Submit when the tenant already has its full
// admission quota of jobs outstanding; the HTTP layer maps it to 429 with
// a Retry-After hint.
var ErrQuota = errors.New("serve: tenant admission quota exceeded")

// QoSClass configures one priority class of the job queue. Weights set the
// fair-share ratio between backlogged classes: a weight-3 class is
// dispatched three pending jobs for every one of a weight-1 class, and its
// share of the running slots is bounded proportionally (floored at one
// slot so no configured class can starve outright).
type QoSClass struct {
	Name   string `json:"name"`
	Weight int    `json:"weight"`
}

// DefaultQoSClasses is the class set used when Config.QoSClasses is empty:
// latency-sensitive interactive traffic at 3× the weight of bulk batch
// work. The FIRST class is the default for requests that name none.
func DefaultQoSClasses() []QoSClass {
	return []QoSClass{{Name: "interactive", Weight: 3}, {Name: "batch", Weight: 1}}
}

// ParseQoSClasses parses a "name:weight,name:weight" flag value (e.g.
// "interactive:3,batch:1") into a class set; the first entry is the
// default class.
func ParseQoSClasses(s string) ([]QoSClass, error) {
	if strings.TrimSpace(s) == "" {
		return DefaultQoSClasses(), nil
	}
	var out []QoSClass
	seen := map[string]bool{}
	for _, part := range strings.Split(s, ",") {
		name, weightStr, ok := strings.Cut(strings.TrimSpace(part), ":")
		name = strings.TrimSpace(name)
		if !ok || name == "" {
			return nil, fmt.Errorf("bad qos class %q (want name:weight)", part)
		}
		w, err := strconv.Atoi(strings.TrimSpace(weightStr))
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("bad qos weight in %q (want a positive integer)", part)
		}
		if seen[name] {
			return nil, fmt.Errorf("duplicate qos class %q", name)
		}
		seen[name] = true
		out = append(out, QoSClass{Name: name, Weight: w})
	}
	return out, nil
}

// classState is one class's scheduler-side state. The atomics are exported
// through /metrics as closures (classes are fixed at startup, so per-class
// instruments register once); everything else is guarded by the
// scheduler's mutex.
type classState struct {
	name   string
	weight int
	// share is the class's running-slot budget: its weight-proportional
	// slice of MaxRunning, floored at one. Shares bind only under
	// contention — a lone backlogged class takes every slot (the scheduler
	// is work-conserving).
	share int
	// vtime is the class's weighted virtual time: incremented by 1/weight
	// per dispatch, so picking the lowest-vtime backlogged class yields
	// weighted fair queuing across classes.
	vtime   float64
	pending int
	running int
	// tenants holds this class's per-tenant FIFOs; ring is the round-robin
	// order over tenants with pending jobs, so one chatty tenant cannot
	// starve others inside its class.
	tenants map[string][]*Job
	ring    []string
	next    int

	dispatched  atomic.Int64
	doneCt      atomic.Int64
	failedCt    atomic.Int64
	cancelledCt atomic.Int64
}

// qosScheduler is the pending set of the job queue: bounded like the old
// channel, but dispatch-ordered by weighted fair share across classes and
// round-robin across tenants inside a class, with per-tenant admission
// quotas. All methods are safe for concurrent use.
type qosScheduler struct {
	mu       sync.Mutex
	cond     *sync.Cond
	capacity int
	quota    int // per-tenant outstanding cap; 0 = unlimited
	size     int
	closed   bool
	// vclock is the virtual time of the most recent dispatch; a class
	// waking from idle is advanced to it so banked idle time cannot buy a
	// monopoly over currently-backlogged classes.
	vclock  float64
	classes []*classState
	byName  map[string]*classState
	// tenants counts each tenant's outstanding jobs (queued or running)
	// for quota admission.
	tenants map[string]int
	// held are the followers waiting on an identical job (see
	// Queue.place): queued jobs that will never run unless their leader
	// fails, each holding a capacity slot and a tenant-quota unit.
	held map[*Job]struct{}
}

func newQoSScheduler(classes []QoSClass, capacity, maxRunning, quota int) *qosScheduler {
	if len(classes) == 0 {
		classes = DefaultQoSClasses()
	}
	s := &qosScheduler{
		capacity: capacity,
		quota:    quota,
		byName:   map[string]*classState{},
		tenants:  map[string]int{},
		held:     map[*Job]struct{}{},
	}
	s.cond = sync.NewCond(&s.mu)
	total := 0
	for _, c := range classes {
		total += c.Weight
	}
	for _, c := range classes {
		share := c.Weight * maxRunning / total
		if share < 1 {
			share = 1
		}
		cs := &classState{
			name: c.Name, weight: c.Weight, share: share,
			tenants: map[string][]*Job{},
		}
		s.classes = append(s.classes, cs)
		s.byName[c.Name] = cs
	}
	return s
}

// defaultClass is the class assigned to requests that name none.
func (s *qosScheduler) defaultClass() string { return s.classes[0].name }

// lookup resolves a request's class name ("" = default).
func (s *qosScheduler) lookup(name string) (*classState, bool) {
	if name == "" {
		return s.classes[0], true
	}
	c, ok := s.byName[name]
	return c, ok
}

// push admits a job to its class/tenant queue. Errors: ErrQueueFull past
// capacity, ErrQuota past the tenant's outstanding cap, ErrClosed after
// close.
func (s *qosScheduler) push(job *Job) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.admissible(job); err != nil {
		return err
	}
	s.add(job)
	return nil
}

// hold admits a follower under the same bounds as push, without queueing
// it: it holds a capacity slot and a tenant-quota unit until unhold or
// requeue.
func (s *qosScheduler) hold(job *Job) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.admissible(job); err != nil {
		return err
	}
	s.held[job] = struct{}{}
	s.tenants[job.tenant]++
	return nil
}

// unhold returns a finished follower's slot and quota unit; a no-op for a
// job that holds none.
func (s *qosScheduler) unhold(job *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.held[job]; ok {
		delete(s.held, job)
		s.decTenant(job.tenant)
	}
}

// requeue queues a held follower whose leader did not finish done, in the
// capacity slot and quota unit it already holds. The only error is
// ErrClosed.
func (s *qosScheduler) requeue(job *Job) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if _, ok := s.held[job]; ok {
		delete(s.held, job)
		s.decTenant(job.tenant)
	}
	s.add(job)
	return nil
}

// admissible applies the admission bounds; the caller holds s.mu.
func (s *qosScheduler) admissible(job *Job) error {
	if s.closed {
		return ErrClosed
	}
	if s.size+len(s.held) >= s.capacity {
		return ErrQueueFull
	}
	if s.quota > 0 && s.tenants[job.tenant] >= s.quota {
		return ErrQuota
	}
	return nil
}

// add queues an admitted job; the caller holds s.mu.
func (s *qosScheduler) add(job *Job) {
	c := s.byName[job.class]
	if c.pending == 0 {
		// Waking from idle: catch the class's virtual time up to the
		// clock so it competes from now, not from its idle past.
		if c.vtime < s.vclock {
			c.vtime = s.vclock
		}
	}
	if len(c.tenants[job.tenant]) == 0 {
		c.ring = append(c.ring, job.tenant)
	}
	c.tenants[job.tenant] = append(c.tenants[job.tenant], job)
	c.pending++
	s.size++
	s.tenants[job.tenant]++
	s.cond.Signal()
}

// next blocks until a job is dispatchable and returns it, or returns nil
// once the scheduler is closed. Class choice: the lowest-vtime backlogged
// class among those under their running-slot share; if every backlogged
// class is at or over its share, the lowest-vtime one anyway (work
// conservation — idle slots are never held back for a class with nothing
// queued). Within the class, tenants are served round-robin.
func (s *qosScheduler) next() *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.size == 0 && !s.closed {
		s.cond.Wait()
	}
	if s.closed {
		return nil
	}
	c := s.pickClass()
	job := c.popTenantRR()
	c.pending--
	s.size--
	c.running++
	c.vtime += 1 / float64(c.weight)
	s.vclock = c.vtime
	c.dispatched.Add(1)
	return job
}

func (s *qosScheduler) pickClass() *classState {
	var best *classState
	for _, c := range s.classes {
		if c.pending > 0 && c.running < c.share && (best == nil || c.vtime < best.vtime) {
			best = c
		}
	}
	if best == nil {
		for _, c := range s.classes {
			if c.pending > 0 && (best == nil || c.vtime < best.vtime) {
				best = c
			}
		}
	}
	return best
}

// popTenantRR dequeues the next tenant's oldest job, advancing the
// round-robin ring; called with the scheduler lock held and pending > 0.
func (c *classState) popTenantRR() *Job {
	i := c.next % len(c.ring)
	tn := c.ring[i]
	q := c.tenants[tn]
	job := q[0]
	if len(q) == 1 {
		delete(c.tenants, tn)
		c.ring = append(c.ring[:i], c.ring[i+1:]...)
		if len(c.ring) > 0 {
			c.next = i % len(c.ring)
		} else {
			c.next = 0
		}
	} else {
		c.tenants[tn] = q[1:]
		c.next = (i + 1) % len(c.ring)
	}
	return job
}

// release returns a dispatched job's running slot and tenant-quota unit;
// called exactly once per dispatched job, after its run ends (the watchdog
// abandoning the BODY still frees the slot — the runner moved on).
func (s *qosScheduler) release(job *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c := s.byName[job.class]; c != nil {
		c.running--
	}
	s.decTenant(job.tenant)
}

func (s *qosScheduler) decTenant(tenant string) {
	if n := s.tenants[tenant]; n <= 1 {
		delete(s.tenants, tenant)
	} else {
		s.tenants[tenant] = n - 1
	}
}

// close wakes every blocked next() with a nil dispatch; pending jobs stay
// queued for drain.
func (s *qosScheduler) close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cond.Broadcast()
}

// drain empties every class queue (quota units released) and returns the
// never-dispatched jobs for the caller to finish as cancelled.
func (s *qosScheduler) drain() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []*Job
	for _, c := range s.classes {
		for tn, q := range c.tenants {
			for _, job := range q {
				s.decTenant(job.tenant)
				out = append(out, job)
			}
			delete(c.tenants, tn)
		}
		c.ring, c.next, c.pending = nil, 0, 0
	}
	s.size = 0
	return out
}

// Len is the pending-job count; Full reports whether the next push would
// be rejected with ErrQueueFull.
func (s *qosScheduler) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.size
}

func (s *qosScheduler) Full() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.size+len(s.held) >= s.capacity
}

func (s *qosScheduler) pendingOf(c *classState) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return c.pending
}

func (s *qosScheduler) runningOf(c *classState) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return c.running
}

// observeTerminal feeds a job's terminal state into its class counters
// (cache hits included: they carry a class even though they never queue).
func (s *qosScheduler) observeTerminal(job *Job, state JobState) {
	c := s.byName[job.class]
	if c == nil {
		return
	}
	switch state {
	case StateDone:
		c.doneCt.Add(1)
	case StateFailed:
		c.failedCt.Add(1)
	case StateCancelled:
		c.cancelledCt.Add(1)
	}
}

// ClassStats is one QoS class's snapshot in GET /stats.
type ClassStats struct {
	Name   string `json:"name"`
	Weight int    `json:"weight"`
	// Share is the class's running-slot budget under contention.
	Share      int   `json:"share"`
	Pending    int   `json:"pending"`
	Running    int   `json:"running"`
	Dispatched int64 `json:"dispatched"`
	Done       int64 `json:"done"`
	Failed     int64 `json:"failed,omitempty"`
	Cancelled  int64 `json:"cancelled,omitempty"`
}

// TenantStats is one tenant's snapshot in GET /stats.
type TenantStats struct {
	Submitted int64 `json:"submitted"`
	Done      int64 `json:"done"`
	Failed    int64 `json:"failed,omitempty"`
	Cancelled int64 `json:"cancelled,omitempty"`
	// RejectedQuota counts this tenant's submissions rejected by the
	// admission quota.
	RejectedQuota int64 `json:"rejected_quota,omitempty"`
	// Outstanding is the tenant's jobs currently queued or running.
	Outstanding int `json:"outstanding,omitempty"`
}

// QoSStats is the qos section of GET /stats.
type QoSStats struct {
	DefaultClass string `json:"default_class"`
	// TenantQuota is the per-tenant outstanding-job cap (0 = unlimited).
	TenantQuota int                    `json:"tenant_quota,omitempty"`
	Classes     []ClassStats           `json:"classes"`
	Tenants     map[string]TenantStats `json:"tenants,omitempty"`
}

// snapshot renders the scheduler's per-class state for /stats.
func (s *qosScheduler) snapshot() []ClassStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]ClassStats, len(s.classes))
	for i, c := range s.classes {
		out[i] = ClassStats{
			Name: c.name, Weight: c.weight, Share: c.share,
			Pending: c.pending, Running: c.running,
			Dispatched: c.dispatched.Load(),
			Done:       c.doneCt.Load(),
			Failed:     c.failedCt.Load(),
			Cancelled:  c.cancelledCt.Load(),
		}
	}
	return out
}

func (s *qosScheduler) outstandingOf(tenant string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tenants[tenant]
}

// tenantCounters are the per-tenant terminal counters the queue maintains
// outside the scheduler (tenants are dynamic, so these live in a bounded
// map rendered into /stats, not in static /metrics families).
type tenantCounters struct {
	submitted, done, failed, cancelled, quota int64
}

// maxTenantEntries bounds the per-tenant stats map; past it, new tenants
// aggregate under tenantOverflow so an open X-Tenant header cannot grow
// server memory without bound.
const (
	maxTenantEntries = 256
	tenantOverflow   = "(other)"
)

// tenantTable is the bounded per-tenant counter map.
type tenantTable struct {
	mu  sync.Mutex
	cts map[string]*tenantCounters
}

func newTenantTable() *tenantTable {
	return &tenantTable{cts: map[string]*tenantCounters{}}
}

func (t *tenantTable) get(tenant string) *tenantCounters {
	c, ok := t.cts[tenant]
	if !ok {
		if len(t.cts) >= maxTenantEntries {
			tenant = tenantOverflow
			if c = t.cts[tenant]; c != nil {
				return c
			}
		}
		c = &tenantCounters{}
		t.cts[tenant] = c
	}
	return c
}

func (t *tenantTable) submitted(tenant string) {
	t.mu.Lock()
	t.get(tenant).submitted++
	t.mu.Unlock()
}

func (t *tenantTable) quotaRejected(tenant string) {
	t.mu.Lock()
	t.get(tenant).quota++
	t.mu.Unlock()
}

func (t *tenantTable) terminal(tenant string, state JobState) {
	t.mu.Lock()
	c := t.get(tenant)
	switch state {
	case StateDone:
		c.done++
	case StateFailed:
		c.failed++
	case StateCancelled:
		c.cancelled++
	}
	t.mu.Unlock()
}

// snapshot renders the table for /stats, with live outstanding counts from
// the scheduler, in stable (sorted) tenant order for test and diff
// friendliness.
func (t *tenantTable) snapshot(s *qosScheduler) map[string]TenantStats {
	t.mu.Lock()
	names := make([]string, 0, len(t.cts))
	for n := range t.cts {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make(map[string]TenantStats, len(names))
	for _, n := range names {
		c := t.cts[n]
		out[n] = TenantStats{
			Submitted: c.submitted, Done: c.done, Failed: c.failed,
			Cancelled: c.cancelled, RejectedQuota: c.quota,
			Outstanding: s.outstandingOf(n),
		}
	}
	t.mu.Unlock()
	if len(out) == 0 {
		return nil
	}
	return out
}
