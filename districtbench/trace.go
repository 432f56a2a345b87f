package main

import (
	"context"
	"io"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/api"
	"repro/internal/obs"
)

// sharedHTTP is the process-wide pooled client every component in this
// process uses: the SDK, the coordinator's hops to its nodes, proxy
// registration and the area-model fetches. Its transport is wrapped once,
// at start-up, by the timing round tripper; the wrapper records nothing
// until a traced phase enables it.
var sharedHTTP = api.SharedHTTPClient()

var timing = &timingTransport{}

func init() {
	timing.next = sharedHTTP.Transport
	if timing.next == nil {
		timing.next = http.DefaultTransport
	}
	sharedHTTP.Transport = timing
}

// httpSpan is one HTTP exchange seen at the public seam: from the
// request leaving the caller until its response body was drained.
type httpSpan struct {
	host      string
	path      string
	iv        interval
	reqBytes  int64
	respBytes int64
}

// opSpan is one benchmark operation: the root of a trace.
type opSpan struct {
	kind string
	id   string
	iv   interval
	rows int
	ok   bool
}

// timingTransport records every exchange whose context carries the
// trace ID of a registered operation. Traces follow the Dapper model:
// each benchmark operation mints a trace ID (obs.WithTraceID), and the
// transport and the coordinator forward it in Traceparent, so the hops
// an operation causes inside the deployment land under the same ID.
type timingTransport struct {
	next    http.RoundTripper
	enabled atomic.Bool
	mu      sync.Mutex
	spans   map[string][]httpSpan
	ops     sync.Map // trace ID → struct{}
}

func (t *timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !t.enabled.Load() {
		return t.next.RoundTrip(req)
	}
	id := obs.TraceIDFrom(req.Context())
	if _, ok := t.ops.Load(id); !ok || id == "" {
		return t.next.RoundTrip(req)
	}
	if req.Header.Get(obs.TraceHeader) == "" {
		// Streamed reads build their own request; carry the trace on.
		req = req.Clone(req.Context())
		req.Header.Set(obs.TraceHeader, obs.FormatTraceparent(id, obs.NewSpanID()))
	}
	sp := httpSpan{host: req.URL.Host, path: req.URL.Path, reqBytes: max(req.ContentLength, 0)}
	sp.iv.start = time.Now()
	rsp, err := t.next.RoundTrip(req)
	if err != nil {
		sp.iv.end = time.Now()
		t.record(id, sp)
		return rsp, err
	}
	rsp.Body = &countingBody{ReadCloser: rsp.Body, done: func(n int64) {
		sp.respBytes = n
		sp.iv.end = time.Now()
		t.record(id, sp)
	}}
	return rsp, nil
}

func (t *timingTransport) record(id string, sp httpSpan) {
	t.mu.Lock()
	t.spans[id] = append(t.spans[id], sp)
	t.mu.Unlock()
}

// countingBody counts response bytes and reports once, at EOF or Close.
type countingBody struct {
	io.ReadCloser
	n    int64
	once sync.Once
	done func(int64)
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	if err == io.EOF {
		b.once.Do(func() { b.done(b.n) })
	}
	return n, err
}

func (b *countingBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.done(b.n) })
	return err
}

// tracer collects the operations of one traced phase. A nil tracer is
// an untraced phase: begin and end cost nothing.
type tracer struct {
	mu  sync.Mutex
	ops []opSpan
}

func startTracing() *tracer {
	timing.mu.Lock()
	timing.spans = make(map[string][]httpSpan)
	timing.mu.Unlock()
	timing.enabled.Store(true)
	return &tracer{}
}

func (tr *tracer) stop() { timing.enabled.Store(false) }

// begin opens an operation span and returns the context that carries
// its trace ID.
func (tr *tracer) begin(ctx context.Context, kind string, rows int) (context.Context, *opSpan) {
	if tr == nil {
		return ctx, nil
	}
	op := &opSpan{kind: kind, id: obs.NewTraceID(), rows: rows}
	timing.ops.Store(op.id, struct{}{})
	op.iv.start = time.Now()
	return obs.WithTraceID(ctx, op.id), op
}

func (tr *tracer) end(op *opSpan, ok bool) {
	if op == nil {
		return
	}
	op.iv.end = time.Now()
	op.ok = ok
	tr.mu.Lock()
	tr.ops = append(tr.ops, *op)
	tr.mu.Unlock()
}

// spansOf returns the HTTP spans recorded under a trace ID.
func spansOf(id string) []httpSpan {
	timing.mu.Lock()
	defer timing.mu.Unlock()
	return timing.spans[id]
}

// procStats is a reading of the process's runtime counters.
type procStats struct {
	gcCycles uint64
	pauseNS  uint64
}

func readProc() procStats {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procStats{gcCycles: s[0].Value.Uint64(), pauseNS: ms.PauseTotalNs}
}

// liveHeapMiB forces two collections and returns the live heap in
// MiB. The second one frees what the first only moved into the
// sync.Pool victim caches, so pooled scratch buffers, whose size
// depends on the last few requests, do not count.
func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// processCPU returns the user plus system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
