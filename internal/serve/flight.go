package serve

import "sync"

// inflight is a single-flight table keyed by content address: while one
// job (the leader) computes a key, identical work waits for it instead of
// running again. Result keys use it for whole jobs (a follower job attaches
// to the leader and finishes with its result); ECO bases use it for the
// base synthesis inside an eco job (a waiter blocks on done, then reads
// the base cache).
//
// Callers hold mu across their cache lookup and the read of m (or the
// start) that follows it, and a leader stores its result before it calls
// end. So a caller sees either the stored result or the running flight,
// never neither — a late arrival hits the cache instead of leading a
// second run.
type inflight struct {
	mu sync.Mutex
	m  map[string]*flight // running flights; guarded by mu
}

// flight is one running computation.
type flight struct {
	done      chan struct{} // closed by end
	followers []*Job
}

// start opens key's flight with the caller as its leader; the caller holds
// mu and has found none running.
func (t *inflight) start(key string) {
	if t.m == nil {
		t.m = make(map[string]*flight)
	}
	t.m[key] = &flight{done: make(chan struct{})}
}

// end closes key's flight, wakes its waiters and hands its followers to
// the caller, who now owns them.
func (t *inflight) end(key string) []*Job {
	t.mu.Lock()
	defer t.mu.Unlock()
	fl := t.m[key]
	if fl == nil {
		return nil
	}
	delete(t.m, key)
	close(fl.done)
	return fl.followers
}

// leave detaches a follower from key's flight, reporting whether it was
// attached; true hands the job back to the caller.
func (t *inflight) leave(key string, j *Job) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	fl := t.m[key]
	if fl == nil {
		return false
	}
	for i, f := range fl.followers {
		if f == j {
			fl.followers = append(fl.followers[:i], fl.followers[i+1:]...)
			return true
		}
	}
	return false
}
