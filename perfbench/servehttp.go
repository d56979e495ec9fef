package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"reflect"
	"time"

	"dscts/internal/bench"
	"dscts/internal/core"
	"dscts/internal/serve"
	"dscts/internal/tech"
)

const (
	// mixBlock is the operation mix, dealt in seeded shuffles of this block
	// so every run holds the same shares: 13 hot-set repeats, 2 fresh keys
	// and 3 /eco deltas on hot bases. Each fresh key is sent twice at once,
	// so the second copy arrives while the first runs; of every 20
	// requests 13 are hits, 4 fresh and 3 ECO — 65/20/15.
	mixBlock = "HHHHHHHHHHHHHFFEEE"
	// sinkDelaysEvery asks for the per-sink delay map on every n-th hit and
	// fresh request.
	sinkDelaysEvery = 10
	ecoMoves        = 20
	// hotSeed places the hot set on the paper's own instances.
	hotSeed = 1
	// qorFresh is how many fresh keys, the first ones dealt, join the QoR
	// list; every run deals at least this many.
	qorFresh = 40
)

// hotSet is the served working set: the paper's flow on C1..C5 plus three
// option variants. ECO deltas apply to the first five, which fit the
// service's default ECO base cache.
var hotSet = []serve.Request{
	{Design: "C1"}, {Design: "C2"}, {Design: "C3"}, {Design: "C4"}, {Design: "C5"},
	{Design: "C1", Options: serve.OptionsSpec{FanoutThreshold: 150}},
	{Design: "C3", Options: serve.OptionsSpec{FanoutThreshold: 600}},
	{Design: "C5", Options: serve.OptionsSpec{Mode: "single"}},
}

const ecoBases = 5

// sreq is one request of serve-http and what became of it.
type sreq struct {
	class string // hit, fresh, dup, eco
	path  string
	body  serve.Request
	key   string // result identity, for duplicate-miss accounting

	submitted, accepted, fetchAt, done time.Time
	status                             int
	raw                                []byte // GET /jobs/{id} body, decoded after the loop
	info                               serve.JobInfo
	reqID                              string
	err                                error
	cpu                                float64 // CPU time of the request, ms
	qor                                bool    // a fresh key of the QoR list
}

// kindOf names what a request costs to serve: its class (a fresh key and
// its duplicate are one kind), its design and options, and whether it asked
// for the per-sink delays. Fresh keys differ only in their placement seed.
func (q *sreq) kindOf() string {
	class := q.class
	if class == "dup" {
		class = "fresh"
	}
	return fmt.Sprintf("%s/%s/%+v/delays=%v", class, q.body.Design, q.body.Options, q.body.IncludeSinkDelays)
}

// server is one in-process serve.Server on a loopback listener.
type server struct {
	srv    *serve.Server
	http   *http.Server
	base   string
	served chan error
}

func startServer(workers int) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	return serveOn(ln, serve.Config{MaxRunning: workers, Workers: workers}), nil
}

func serveOn(ln net.Listener, cfg serve.Config) *server {
	s := &server{
		srv:    serve.NewServer(cfg),
		base:   "http://" + ln.Addr().String(),
		served: make(chan error, 1),
	}
	s.http = &http.Server{Handler: s.srv.Handler()}
	go func() { s.served <- s.http.Serve(ln) }()
	return s
}

// stop shuts the listener, waits for its serving goroutine, and closes the
// queue (which waits for running jobs).
func (s *server) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.http.Shutdown(ctx); err != nil {
		s.http.Close()
	}
	<-s.served
	s.srv.Close()
}

// client is the load generator's HTTP side: at most `workers` connections.
type client struct {
	c    *http.Client
	base string
}

func newClient(base string, workers int) *client {
	return &client{base: base, c: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: workers, MaxIdleConnsPerHost: workers,
	}}}
}

func (c *client) close() { c.c.CloseIdleConnections() }

// jobHead is the part of a job snapshot the generator reads while the
// loop runs. Full snapshots are kept as bytes, which the garbage
// collector does not scan, and decoded after the loop, so the
// generator's own heap stays small next to the server's.
type jobHead struct {
	ID    string         `json:"id"`
	State serve.JobState `json:"state"`
	Error string         `json:"error"`
}

// post submits a request; it returns the HTTP status, the head of the job
// snapshot when the request was accepted, and the response headers.
func (c *client) post(path string, body *serve.Request, mode string) (int, jobHead, http.Header, error) {
	var head jobHead
	data, err := json.Marshal(body)
	if err != nil {
		return 0, head, nil, err
	}
	resp, err := c.c.Post(c.base+path+"?mode="+mode, "application/json", bytes.NewReader(data))
	if err != nil {
		return 0, head, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, head, resp.Header, err
	}
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		err = json.Unmarshal(b, &head)
	}
	return resp.StatusCode, head, resp.Header, err
}

// get fetches a job snapshot's raw body.
func (c *client) get(id string) ([]byte, error) {
	resp, err := c.c.Get(c.base + "/jobs/" + id)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /jobs/%s: %s", id, resp.Status)
	}
	return b, nil
}

// serveMix holds the request population of one run.
type serveMix struct {
	seed   int64
	hot    []serve.Request
	places map[string]*bench.Placement // design → hot-set placement
}

func newServeMix(seed int64) (*serveMix, error) {
	mx := &serveMix{seed: max(seed, 1), places: map[string]*bench.Placement{}}
	for _, d := range bench.Suite() {
		p, err := bench.Generate(d, hotSeed)
		if err != nil {
			return nil, err
		}
		mx.places[d.ID] = p
	}
	for _, h := range hotSet {
		h.Seed = hotSeed
		mx.hot = append(mx.hot, h)
	}
	return mx, nil
}

func reqKey(q serve.Request) string {
	return fmt.Sprintf("%s/%d/%+v", q.Design, q.Seed, q.Options)
}

// deck deals 0..n-1 in seeded shuffles, so each value comes up equally
// often over a run.
type deck struct {
	rng  *rand.Rand
	n    int
	left []int
}

func (d *deck) draw() int {
	if len(d.left) == 0 {
		d.left = d.rng.Perm(d.n)
	}
	v := d.left[0]
	d.left = d.left[1:]
	return v
}

// dealer deals the closed loop's operations: classes from mixBlock, hot
// entries, ECO bases and fresh designs each in seeded shuffles, so every
// run holds the same shares. Fresh keys are placements of seeds no other
// run shares.
type dealer struct {
	mx                           *serveMix
	rng                          *rand.Rand
	classes, hot, bases, designs *deck
	fresh                        int64
	plain                        int
}

func (mx *serveMix) dealer() *dealer {
	rng := rand.New(rand.NewSource(mx.seed*7919 + 17))
	return &dealer{
		mx: mx, rng: rng,
		classes: &deck{rng: rng, n: len(mixBlock)},
		hot:     &deck{rng: rng, n: len(mx.hot)},
		bases:   &deck{rng: rng, n: ecoBases},
		designs: &deck{rng: rng, n: len(bench.Suite())},
	}
}

func (d *dealer) sinkDelays() bool {
	d.plain++
	return d.plain%sinkDelaysEvery == 0
}

// next returns the requests of the next operation: one hot-set repeat, one
// /eco delta, or a fresh key and its duplicate.
func (d *dealer) next() []*sreq {
	switch mixBlock[d.classes.draw()] {
	case 'H':
		h := d.mx.hot[d.hot.draw()]
		h.IncludeSinkDelays = d.sinkDelays()
		return []*sreq{{class: "hit", path: "/synthesize", body: h, key: reqKey(h)}}
	case 'F':
		d.fresh++
		f := serve.Request{Design: bench.Suite()[d.designs.draw()].ID, Seed: d.mx.seed*1_000_003 + d.fresh}
		f.IncludeSinkDelays = d.sinkDelays()
		return []*sreq{
			{class: "fresh", path: "/synthesize", body: f, key: reqKey(f), qor: d.fresh <= qorFresh},
			{class: "dup", path: "/synthesize", body: f, key: reqKey(f)},
		}
	default:
		e := d.mx.ecoRequest(d.rng, d.mx.hot[d.bases.draw()])
		return []*sreq{{class: "eco", path: "/eco", body: e}}
	}
}

// ecoRequest moves a few random sinks of a hot base by a few µm.
func (mx *serveMix) ecoRequest(rng *rand.Rand, base serve.Request) serve.Request {
	p := mx.places[base.Design]
	delta := &serve.DeltaSpec{}
	for _, i := range rng.Perm(len(p.Sinks))[:ecoMoves] {
		s := p.Sinks[i]
		delta.Move = append(delta.Move, serve.MoveSpec{
			Sink: i,
			X:    math.Min(math.Max(s.X+4*rng.Float64()-2, p.Die.MinX), p.Die.MaxX),
			Y:    math.Min(math.Max(s.Y+4*rng.Float64()-2, p.Die.MinY), p.Die.MaxY),
		})
	}
	base.Delta = delta
	return base
}

// library runs a request's synthesis directly through core.Synthesize.
func (mx *serveMix) library(q serve.Request, workers int) (*core.Outcome, error) {
	p, ok := mx.places[q.Design]
	if !ok || q.Seed != hotSeed {
		d, err := bench.ByID(q.Design)
		if err != nil {
			return nil, err
		}
		if p, err = bench.Generate(d, q.Seed); err != nil {
			return nil, err
		}
	}
	opt := core.Options{Workers: workers, FanoutThreshold: q.Options.FanoutThreshold}
	if q.Options.Mode == "single" {
		opt.Mode = core.SingleSide
	}
	return core.Synthesize(p.Root, p.Sinks, tech.ASAP7(), opt)
}

// runServeHTTP is the serve-http workload: a closed loop with one caller
// over loopback HTTP against an in-process serve.Server with MaxRunning =
// GOMAXPROCS. Each operation is submitted with ?mode=async; the caller
// waits on the job's Done channel and fetches GET /jobs/{id}. A fresh key
// and its duplicate are submitted together, so the duplicate arrives while
// the first copy runs. An operation's cost is the process's CPU time from
// its first submission to its last fetch — server and client share the
// process — split evenly between its requests.
func runServeHTTP(r *run) error {
	t0 := time.Now()
	mx, err := newServeMix(r.seed)
	if err != nil {
		return err
	}
	r.m["bench.generate_ms"] = ms(time.Since(t0))
	var setups []float64
	var s *server
	for rep := 0; rep < setupReps; rep++ {
		if s != nil {
			s.stop()
		}
		settle()
		c0 := cpuNow()
		if s, err = startServer(r.workers); err != nil {
			return err
		}
		if err := warmUp(s, mx, r.workers); err != nil {
			s.stop()
			return err
		}
		setups = append(setups, (cpuNow() - c0).Seconds())
	}
	r.m["setup_s"] = quantile(setups, 0.5)

	c := newClient(s.base, r.workers)
	deal := mx.dealer()
	var reqs []*sreq
	settle()
	mem := startMem()
	// Whole blocks of mixBlock only, so every run holds the same mix.
	for deadline := r.deadline(time.Now()); time.Now().Before(deadline) || len(deal.classes.left) > 0 || deal.fresh < qorFresh; {
		op := deal.next()
		c0 := cpuNow()
		send(s, c, op)
		cpu := ms(cpuNow()-c0) / float64(len(op))
		for _, q := range op {
			q.cpu = cpu
		}
		reqs = append(reqs, op...)
	}
	mem.report(r, len(reqs))
	c.close()
	s.stop()
	for _, q := range reqs {
		if q.err == nil {
			q.err = json.Unmarshal(q.raw, &q.info)
		}
	}

	r.attempted = len(reqs)
	var loop closedLoop
	for _, q := range reqs {
		if q.err != nil || q.info.State != serve.StateDone {
			r.failed++
			fmt.Printf("# request %s %s failed: status %d state %s err %v %s\n", q.class, q.key, q.status, q.info.State, q.err, q.info.Error)
			continue
		}
		loop.add(q.kindOf(), q.done.Sub(q.submitted), msDur(q.cpu), false)
	}
	loop.report(r)
	r.m["peak_rss_mb"] = peakRSSMB()

	checkServe(r, mx, reqs)
	if r.tr != nil {
		traceServe(r, reqs)
		r.zeroUnset()
	}
	return nil
}

// warmUp fills the result cache with the hot set and the ECO base cache
// with its bases, so measured hits are hits from the first request.
func warmUp(s *server, mx *serveMix, workers int) error {
	c := newClient(s.base, workers)
	defer c.close()
	rng := rand.New(rand.NewSource(mx.seed))
	for i, h := range mx.hot {
		warm := []serve.Request{h}
		if i < ecoBases {
			warm = append(warm, mx.ecoRequest(rng, h))
		}
		for _, q := range warm {
			path := "/synthesize"
			if q.Delta != nil {
				path = "/eco"
			}
			status, info, _, err := c.post(path, &q, "sync")
			if err != nil || status != http.StatusOK || info.State != serve.StateDone {
				return fmt.Errorf("warm-up %s %s: status %d state %s: %v %s", path, reqKey(q), status, info.State, err, info.Error)
			}
		}
	}
	return nil
}

// send submits an operation's requests, then waits for each job to finish
// and fetches its snapshot.
func send(s *server, c *client, op []*sreq) {
	jobs := make([]*serve.Job, len(op))
	ids := make([]string, len(op))
	for i, q := range op {
		q.submitted = time.Now()
		status, info, hdr, err := c.post(q.path, &q.body, "async")
		q.accepted = time.Now()
		q.status = status
		if hdr != nil {
			q.reqID = hdr.Get("X-Request-ID")
		}
		if err == nil && status != http.StatusAccepted {
			err = fmt.Errorf("POST %s: status %d", q.path, status)
		}
		if err == nil {
			jobs[i], err = s.srv.Queue().Job(info.ID)
			ids[i] = info.ID
		}
		q.err = err
	}
	for i, q := range op {
		if q.err != nil {
			q.done = time.Now()
			continue
		}
		<-jobs[i].Done()
		q.fetchAt = time.Now()
		q.raw, q.err = c.get(ids[i])
		q.done = time.Now()
	}
}

// checkServe compares served results with direct library calls — every
// hot-set entry, fresh key and duplicate — and one fresh key at Workers=1.
// The hot set and the first qorFresh fresh keys are the QoR list.
func checkServe(r *run, mx *serveMix, reqs []*sreq) {
	tc := tech.ASAP7()
	lib := map[string]*core.Outcome{}
	direct := func(q serve.Request) *core.Outcome {
		k := reqKey(q)
		if o, ok := lib[k]; ok {
			return o
		}
		o, err := mx.library(q, r.workers)
		if err != nil {
			r.problem("library %s: %v", k, err)
		}
		lib[k] = o
		return o
	}
	var q qor
	for _, h := range mx.hot {
		o := direct(h)
		if o == nil {
			continue
		}
		so, err := checkTree(o.Tree, len(mx.places[h.Design].Sinks), tc)
		if err != nil {
			r.problem("hot %s: %v", reqKey(h), err)
		}
		q.add(o.Metrics, so)
	}
	checkedW1 := false
	for _, sq := range reqs {
		if sq.class == "eco" || sq.err != nil || sq.info.State != serve.StateDone {
			continue
		}
		o := direct(sq.body)
		if o == nil {
			continue
		}
		if err := sameServed(sq, o); err != nil {
			r.problem("%s %s: served result differs from core.Synthesize: %v", sq.class, sq.key, err)
		}
		if sq.class != "fresh" {
			continue
		}
		so, err := checkTree(o.Tree, sq.info.Sinks, tc)
		if err != nil {
			r.problem("fresh %s: %v", sq.key, err)
		}
		if sq.qor {
			q.add(o.Metrics, so)
		}
		if !checkedW1 {
			checkedW1 = true
			one, err := mx.library(sq.body, 1)
			if err == nil {
				err = sameOutcome(o, one)
			}
			if err != nil {
				r.problem("%s: Workers=1 differs from Workers=%d: %v", sq.key, r.workers, err)
			}
		}
	}
	q.report(r)
	for _, sq := range reqs {
		if sq.class == "eco" && sq.err == nil && (sq.info.Result == nil || sq.info.Result.ECO == nil || sq.info.Result.Metrics == nil) {
			r.problem("eco request %s returned no ECO result", sq.reqID)
		}
	}
}

// sameServed compares a served result with a library outcome: the Table III
// numbers exactly, and the per-sink delays when the request asked for them.
func sameServed(q *sreq, o *core.Outcome) error {
	res := q.info.Result
	if res == nil || res.Metrics == nil {
		return errors.New("no metrics in response")
	}
	a, b := *res.Metrics, *o.Metrics
	if !q.body.IncludeSinkDelays {
		b.SinkDelays = nil
	}
	if !reflect.DeepEqual(a, b) {
		return fmt.Errorf("served %v/%v/%d/%d/%v, library %v/%v/%d/%d/%v",
			a.Latency, a.Skew, a.Buffers, a.NTSVs, a.WL, b.Latency, b.Skew, b.Buffers, b.NTSVs, b.WL)
	}
	return nil
}

// traceServe builds each request's spans from what the run recorded — the
// client's submit and fetch, and the response's queue_ms, run_ms and
// phases, linked by X-Request-ID — and fills the serve.* ledger. Every run
// records the same timestamps, so tracing adds no work to the loop.
func traceServe(r *run, reqs []*sreq) {
	tr := r.tr
	var httpMS, queueMS, runMS, respKB []float64
	hits, ok := 0, 0
	misses := map[string]int{}
	rejected, timeouts := 0, 0
	for _, q := range reqs {
		if q.status == http.StatusTooManyRequests || q.status == http.StatusServiceUnavailable || q.status == http.StatusRequestEntityTooLarge {
			rejected++
		}
		if q.info.TimedOut {
			timeouts++
		}
		if q.err != nil || q.info.State != serve.StateDone {
			continue
		}
		ok++
		job := tr.add("job", -1, q.reqID, 0, q.submitted, q.done)
		tr.add("serve.submit", job, q.reqID, 0, q.submitted, q.accepted)
		jobSpans(tr, job, q.reqID, q.info)
		tr.add("serve.fetch", job, q.reqID, 0, q.fetchAt, q.done)
		wall := ms(q.done.Sub(q.submitted))
		httpMS = append(httpMS, wall-q.info.QueueMS-q.info.RunMS)
		queueMS = append(queueMS, q.info.QueueMS)
		runMS = append(runMS, q.info.RunMS)
		respKB = append(respKB, float64(len(q.raw))/1024)
		if q.info.CacheHit {
			hits++
		} else if q.class != "eco" {
			misses[q.key]++
		}
	}
	r.m["serve.http_ms"] = quantile(httpMS, 0.5)
	r.m["serve.queue_ms"] = mean(queueMS)
	r.m["serve.run_ms"] = mean(runMS)
	r.m["serve.cache.hit_ratio"] = float64(hits) / float64(max(ok, 1))
	total := 0
	for _, n := range misses {
		total += n
	}
	r.m["serve.dup_miss_ratio"] = float64(total) / float64(max(len(misses), 1))
	r.m["serve.resp_kb"] = mean(respKB)
	r.m["serve.rejected"] = float64(rejected)
	r.m["serve.timeouts"] = float64(timeouts)
	r.m["trace.overhead_pct"] = 0
	r.reportCoverage()
}

// jobSpans adds a served job's server-side spans under a request span: its
// queue wait and run from the job snapshot (server and client share one
// clock in-process), and, for a job that ran rather than hit the cache, the
// flow phases it reported, laid end to end inside the run.
func jobSpans(tr *tracer, parent int, reqID string, info serve.JobInfo) {
	startRun := info.Created.Add(msDur(info.QueueMS))
	tr.add("serve.queue", parent, reqID, 0, info.Created, startRun)
	run := tr.add("serve.run", parent, reqID, 0, startRun, startRun.Add(msDur(info.RunMS)))
	if res := info.Result; res != nil && !info.CacheHit {
		at := startRun
		for _, p := range res.Phases {
			tr.add(p.Phase, run, reqID, 0, at, at.Add(msDur(p.MS)))
			at = at.Add(msDur(p.MS))
		}
	}
}

func msDur(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }
