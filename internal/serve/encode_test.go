package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dscts/internal/core"
)

// rawPost posts req to url and returns the raw response body.
func rawPost(t *testing.T, url string, req *Request) []byte {
	t.Helper()
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return readBody(t, resp)
}

func rawGet(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return readBody(t, resp)
}

func readBody(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		t.Fatalf("%s: %s", resp.Status, b)
	}
	return b
}

// lastLine is an NDJSON stream's terminal event.
func lastLine(t *testing.T, body []byte) []byte {
	t.Helper()
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		last = append(last[:0], sc.Bytes()...)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return last
}

// resultMember extracts a body's "result" member exactly as served.
func resultMember(t *testing.T, body []byte) []byte {
	t.Helper()
	var v struct {
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("%v: %.200s", err, body)
	}
	return v.Result
}

// encodeLine is what the pre-encoding server wrote for v: json.Encoder
// output, trailing newline included.
func encodeLine(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkInfoBody requires a job-snapshot body to carry want as its result
// and to equal, byte for byte, encoding the snapshot with that result set.
func checkInfoBody(t *testing.T, label string, body []byte, res *Result, want []byte) {
	t.Helper()
	if got := resultMember(t, body); !bytes.Equal(got, want) {
		t.Fatalf("%s: result member differs from json.Marshal(res.view(x)):\n got %.300s\nwant %.300s", label, got, want)
	}
	var info JobInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if !info.CacheHit {
		t.Fatalf("%s: not a cache hit", label)
	}
	info.Result = res
	if exp := encodeLine(t, info); !bytes.Equal(body, exp) {
		t.Fatalf("%s: body differs from the encoded snapshot:\n got %.300s\nwant %.300s", label, body, exp)
	}
}

// TestHitBodyParity: every hit path — sync POST, async POST + GET
// /jobs/{id}, and the stream's "done" event — serves the cached result's
// bytes, equal to json.Marshal(res.view(x)) for both include_sink_delays
// settings, inside a body byte-identical to encoding the snapshot whole.
func TestHitBodyParity(t *testing.T) {
	s := NewServer(Config{MaxRunning: 1, Workers: 2})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	reqs := []*Request{{Design: "C1"}, {Design: "C2"}, {Design: "C3"}, {Design: "C4"}, {Design: "C5"},
		{Design: "C4", Corners: []string{"slow", "typ", "fast"}}}
	for _, base := range reqs {
		rv := directMetrics(t, base, KindSynthesize)
		o, err := core.Synthesize(rv.root, rv.sinks, rv.tc, rv.opt)
		if err != nil {
			t.Fatal(err)
		}
		res := resultFromOutcome(KindSynthesize, rv.design, len(rv.sinks), o)
		if !s.Queue().cache.Put(base.Key(KindSynthesize), res) {
			t.Fatal("cache refused a well-formed result")
		}
		for _, delays := range []bool{false, true} {
			req := *base
			req.IncludeSinkDelays = delays
			label := fmt.Sprintf("%s corners=%d delays=%v", base.Design, len(base.Corners), delays)
			view := res.view(delays)
			want, err := json.Marshal(view)
			if err != nil {
				t.Fatal(err)
			}

			checkInfoBody(t, label+" sync", rawPost(t, ts.URL+"/synthesize", &req), view, want)

			async := rawPost(t, ts.URL+"/synthesize?mode=async", &req)
			checkInfoBody(t, label+" async", async, view, want)
			var head JobInfo
			if err := json.Unmarshal(async, &head); err != nil {
				t.Fatal(err)
			}
			checkInfoBody(t, label+" GET", rawGet(t, ts.URL+"/jobs/"+head.ID), view, want)

			last := lastLine(t, rawPost(t, ts.URL+"/synthesize?mode=stream", &req))
			if got := resultMember(t, last); !bytes.Equal(got, want) {
				t.Fatalf("%s stream: done event result differs:\n got %.300s\nwant %.300s", label, got, want)
			}
			var ev Event
			if err := json.Unmarshal(last, &ev); err != nil {
				t.Fatal(err)
			}
			ev.Result = view
			if exp := encodeLine(t, ev); !bytes.Equal(append(last, '\n'), exp) {
				t.Fatalf("%s stream: done event differs from the encoded event:\n got %.300s\nwant %.300s", label, last, exp)
			}
		}
	}
}

// TestHitWritesStoredBytes proves a hit never re-encodes its result: the
// cache entry's slim bytes are swapped for different ones (under a
// matching checksum), and every hit path serves the swapped bytes, which
// no encoding of the entry's *Result could produce.
func TestHitWritesStoredBytes(t *testing.T) {
	s := NewServer(Config{MaxRunning: 1, Workers: 1})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	req := &Request{Design: "C1"}
	key := req.Key(KindSynthesize)
	res := &Result{Kind: KindSynthesize, Design: "C1", Sinks: 1}
	if !s.Queue().cache.Put(key, res) {
		t.Fatal("Put refused")
	}
	stored := []byte(`{"kind":"synthesize","design":"stored-bytes","sinks":7,"total_ms":0}`)
	s.Queue().cache.lru.Update(key, func(e encResult) encResult {
		e.slim = stored
		e.slimSum = crc32.Checksum(stored, castagnoli)
		return e
	})
	if got := resultMember(t, rawPost(t, ts.URL+"/synthesize", req)); !bytes.Equal(got, stored) {
		t.Fatalf("sync hit re-encoded its result: %s", got)
	}
	async := rawPost(t, ts.URL+"/synthesize?mode=async", req)
	var head JobInfo
	if err := json.Unmarshal(async, &head); err != nil {
		t.Fatal(err)
	}
	if got := resultMember(t, rawGet(t, ts.URL+"/jobs/"+head.ID)); !bytes.Equal(got, stored) {
		t.Fatalf("GET of a hit re-encoded its result: %s", got)
	}
	if got := resultMember(t, lastLine(t, rawPost(t, ts.URL+"/synthesize?mode=stream", req))); !bytes.Equal(got, stored) {
		t.Fatalf("stream hit re-encoded its result: %s", got)
	}
	// The in-process API reads the entry's Result, not the bytes.
	j, err := s.Queue().Job(head.ID)
	if err != nil {
		t.Fatal(err)
	}
	if r := j.Info().Result; r == nil || r.Design != "C1" {
		t.Fatalf("Info().Result = %+v, want the entry's Result", r)
	}
}

// TestWarmHitBytesSurviveRestart: a persisted result comes back from a
// restart as the same bytes — the store holds the entry's full wire form,
// which warm start reinstalls as is — so a hit after the restart serves a
// result member byte-identical to the same hit before it, in both forms.
func TestWarmHitBytesSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	p1 := startPersisted(t, dir, nil)
	if _, err := p1.client.Synthesize(ctx, &Request{Design: "C4", Corners: []string{"slow", "fast"}}); err != nil {
		t.Fatal(err)
	}
	forms := []*Request{
		{Design: "C4", Corners: []string{"slow", "fast"}},
		{Design: "C4", Corners: []string{"slow", "fast"}, IncludeSinkDelays: true},
	}
	before := make([][]byte, len(forms))
	for i, req := range forms {
		before[i] = resultMember(t, rawPost(t, p1.ts.URL+"/synthesize", req))
	}
	p1.stop()

	p2 := startPersisted(t, dir, nil)
	for i, req := range forms {
		body := rawPost(t, p2.ts.URL+"/synthesize", req)
		var info JobInfo
		if err := json.Unmarshal(body, &info); err != nil {
			t.Fatal(err)
		}
		if !info.CacheHit {
			t.Fatalf("form %d: restarted daemon recomputed a persisted request", i)
		}
		if got := resultMember(t, body); !bytes.Equal(got, before[i]) {
			t.Fatalf("form %d: warm hit bytes differ from the pre-restart hit:\n got %.300s\nwant %.300s", i, got, before[i])
		}
	}
}

// TestInfoReportsUndecodableResult: a job that asked for sink delays is
// answered in process by decoding its stored full form. Should that fail,
// Info says so and carries no result, instead of passing off the result
// without sink delays as the one asked for.
func TestInfoReportsUndecodableResult(t *testing.T) {
	q := NewQueue(Config{MaxRunning: 1, Workers: 1})
	t.Cleanup(q.Close)
	j, err := q.Submit(&Request{Design: "C1", IncludeSinkDelays: true}, KindSynthesize)
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	if info := j.Info(); info.Result == nil || len(info.Result.Metrics.SinkDelays) == 0 {
		t.Fatalf("Info() = %+v, want a result with sink delays", info)
	}
	j.mu.Lock()
	damaged := *j.out
	damaged.full = damaged.full[:len(damaged.full)/2]
	j.out = &damaged
	j.mu.Unlock()
	info := j.Info()
	if info.Result != nil || !strings.Contains(info.Error, "result unavailable") {
		t.Fatalf("Info() of an undecodable result: result=%v error=%q", info.Result != nil, info.Error)
	}
}
