//go:build unix

package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"syscall"
	"testing"
	"time"
)

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// serveOnce drives one POST through the handler in process (no sockets).
func serveOnce(b *testing.B, h http.Handler, path string, req *Request) []byte {
	data, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(data)))
	if rec.Code != http.StatusOK && rec.Code != http.StatusAccepted {
		b.Fatalf("%s: %d %s", path, rec.Code, rec.Body.Bytes())
	}
	return rec.Body.Bytes()
}

// BenchmarkServeHit is the cost of a sync cache hit, from request decode
// to the written body, per design and response form; cpu-ms/op is the
// process CPU time per hit.
//
//	go test -run xxx -bench BenchmarkServeHit ./internal/serve/
func BenchmarkServeHit(b *testing.B) {
	for _, design := range []string{"C1", "C2", "C3", "C4", "C5"} {
		for _, delays := range []bool{false, true} {
			b.Run(fmt.Sprintf("%s/delays=%v", design, delays), func(b *testing.B) {
				s := NewServer(Config{MaxRunning: 1})
				defer s.Close()
				h := s.Handler()
				req := &Request{Design: design, IncludeSinkDelays: delays}
				serveOnce(b, h, "/synthesize", req) // the miss that fills the cache
				b.ResetTimer()
				c0 := cpuTime()
				for i := 0; i < b.N; i++ {
					serveOnce(b, h, "/synthesize", req)
				}
				b.ReportMetric(float64(cpuTime()-c0)/float64(time.Millisecond)/float64(b.N), "cpu-ms/op")
			})
		}
	}
}

// BenchmarkServeFreshPair is the cost of a fresh key submitted twice at
// once (a request and its concurrent duplicate), each op a new seed.
//
//	go test -run xxx -bench BenchmarkServeFreshPair -benchtime 20x ./internal/serve/
func BenchmarkServeFreshPair(b *testing.B) {
	for _, design := range []string{"C2", "C3"} {
		b.Run(design, func(b *testing.B) {
			s := NewServer(Config{MaxRunning: 2, Workers: 2})
			defer s.Close()
			q := s.Queue()
			c0 := cpuTime()
			for i := 0; i < b.N; i++ {
				var jobs [2]*Job
				for k := range jobs {
					j, err := q.Submit(&Request{Design: design, Seed: int64(1000 + i)}, KindSynthesize)
					if err != nil {
						b.Fatal(err)
					}
					jobs[k] = j
				}
				for _, j := range jobs {
					<-j.Done()
					if info := j.Info(); info.State != StateDone {
						b.Fatalf("%s: %s", info.State, info.Error)
					}
				}
			}
			b.ReportMetric(float64(cpuTime()-c0)/float64(time.Millisecond)/float64(b.N), "cpu-ms/op")
		})
	}
}

// BenchmarkServeFresh is the cost of a sync miss on all-fresh traffic: each
// op posts a new seed, so nothing hits and nothing coalesces, and the op
// pays the flow, the store (both wire forms encoded) and the response.
//
//	go test -run xxx -bench BenchmarkServeFresh$ -benchtime 10x ./internal/serve/
func BenchmarkServeFresh(b *testing.B) {
	for _, design := range []string{"C2", "C3", "C4"} {
		b.Run(design, func(b *testing.B) {
			s := NewServer(Config{MaxRunning: 1, Workers: 2})
			defer s.Close()
			h := s.Handler()
			c0 := cpuTime()
			for i := 0; i < b.N; i++ {
				serveOnce(b, h, "/synthesize", &Request{Design: design, Seed: int64(2000 + i), IncludeSinkDelays: i%10 == 0})
			}
			b.ReportMetric(float64(cpuTime()-c0)/float64(time.Millisecond)/float64(b.N), "cpu-ms/op")
		})
	}
}
