package api

import (
	"compress/gzip"
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// Middleware wraps an http.Handler with cross-cutting behaviour.
type Middleware func(http.Handler) http.Handler

// Chain applies middlewares to h with the first middleware outermost:
// Chain(h, a, b) serves a(b(h)).
func Chain(h http.Handler, mws ...Middleware) http.Handler {
	for i := len(mws) - 1; i >= 0; i-- {
		h = mws[i](h)
	}
	return h
}

// ctxKey namespaces the layer's context values.
type ctxKey int

const (
	ctxKeyRequestID ctxKey = iota
	ctxKeyRouteInfo
)

// RouteInfo carries the matched route pattern from the router back out
// to the observing middlewares (which run outside the router).
type RouteInfo struct {
	Pattern string
}

func routeInfoFrom(ctx context.Context) *RouteInfo {
	ri, _ := ctx.Value(ctxKeyRouteInfo).(*RouteInfo)
	return ri
}

// RequestIDFrom returns the request ID middleware-injected into ctx, or
// "" outside a request.
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(ctxKeyRequestID).(string)
	return id
}

// NewRequestID mints a 16-hex-char random request ID.
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// RequestID injects a request ID (honouring an inbound X-Request-ID so
// IDs propagate across service hops) into the context and echoes it on
// the response.
func RequestID() Middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			id := r.Header.Get("X-Request-ID")
			if id == "" {
				id = NewRequestID()
			}
			ctx := context.WithValue(r.Context(), ctxKeyRequestID, id)
			ctx = context.WithValue(ctx, ctxKeyRouteInfo, &RouteInfo{})
			w.Header().Set("X-Request-ID", id)
			next.ServeHTTP(w, r.WithContext(ctx))
		})
	}
}

// Trace is the cross-service tracing middleware: it adopts an inbound
// Traceparent header's trace ID (minting one otherwise, so every
// request is traceable), exposes the ID and a stage-timing collector
// through the context (obs.TraceIDFrom / obs.StagesFrom), echoes a
// traceparent on the response so callers learn the ID, and records a
// span into the tracer's ring when the handler returns. The built-in
// /healthz and /metrics routes are not recorded — scrapes would churn
// the ring out of its useful spans.
func Trace(service string, t *obs.Tracer) Middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			traceID, _, ok := obs.ParseTraceparent(r.Header.Get(obs.TraceHeader))
			if !ok {
				traceID = obs.NewTraceID()
			}
			stages := &obs.Stages{}
			ctx := obs.WithTraceID(r.Context(), traceID)
			ctx = obs.WithStages(ctx, stages)
			w.Header().Set(obs.TraceHeader, obs.FormatTraceparent(traceID, obs.NewSpanID()))
			sw := &statusWriter{ResponseWriter: w}
			start := time.Now()
			next.ServeHTTP(sw, r.WithContext(ctx))
			pattern := "unmatched"
			if ri := routeInfoFrom(ctx); ri != nil && ri.Pattern != "" {
				pattern = ri.Pattern
			}
			switch pattern {
			case "/healthz", "/metrics", "/debug/pprof":
				return
			}
			status := sw.status
			if status == 0 {
				status = http.StatusOK
			}
			t.Record(obs.SpanRecord{
				TraceID:    traceID,
				RequestID:  RequestIDFrom(ctx),
				Service:    service,
				Method:     r.Method,
				Route:      pattern,
				Status:     status,
				Start:      start.UTC(),
				DurationMS: float64(time.Since(start)) / float64(time.Millisecond),
				Stages:     stages.Snapshot(),
			})
		})
	}
}

// statusWriter records the response status and size.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(status int) {
	if w.status != 0 {
		return // first write wins; avoids superfluous-WriteHeader noise
	}
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// Flush forwards to the underlying writer so streaming endpoints
// (Server-Sent Events) keep working through the observing middlewares.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// AccessLog logs one line per request: service, method, path, matched
// route, status, bytes, duration, and request ID.
func AccessLog(service string, logger Logger) Middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			sw := &statusWriter{ResponseWriter: w}
			start := time.Now()
			next.ServeHTTP(sw, r)
			pattern := r.URL.Path
			if ri := routeInfoFrom(r.Context()); ri != nil && ri.Pattern != "" {
				pattern = ri.Pattern
			}
			logger.Printf("%s: %s %s -> %s %d %dB %s rid=%s",
				service, r.Method, r.URL.RequestURI(), pattern,
				sw.status, sw.bytes, time.Since(start).Round(time.Microsecond),
				RequestIDFrom(r.Context()))
		})
	}
}

// Observe records per-route count, error count, and latency.
func Observe(m *Metrics) Middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			sw := &statusWriter{ResponseWriter: w}
			start := time.Now()
			next.ServeHTTP(sw, r)
			pattern := "unmatched"
			if ri := routeInfoFrom(r.Context()); ri != nil && ri.Pattern != "" {
				pattern = ri.Pattern
			}
			m.observe(r.Method, pattern, sw.status, time.Since(start))
		})
	}
}

// Recover converts handler panics into a 500 envelope instead of a
// dropped connection.
func Recover() Middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			defer func() {
				if v := recover(); v != nil {
					WriteErrorStatus(w, r, http.StatusInternalServerError,
						fmt.Errorf("internal error: %v", v))
				}
			}()
			next.ServeHTTP(w, r)
		})
	}
}

// gzipPool recycles gzip writers across requests.
var gzipPool = sync.Pool{New: func() any {
	return gzip.NewWriter(io.Discard)
}}

// gzipMinSize is the smallest response worth compressing. Below it a
// flate compressor reset costs more than the bytes it saves, which on
// an internal hop (Go's transport asks for gzip on every request) is
// most of a small ingest summary's serving cost.
const gzipMinSize = 1 << 10

// gzipWriter picks the response's coding from its size. It holds back
// the status and the first bytes; a response that ends below
// gzipMinSize goes out identity-coded, and one that reaches it, or is
// flushed first, commits to gzip.
type gzipWriter struct {
	http.ResponseWriter
	status int          // held WriteHeader status (0: none)
	held   []byte       // body bytes written while the coding is undecided
	gz     *gzip.Writer // nil until the response commits to gzip
}

var gzipWriterPool = sync.Pool{New: func() any {
	return &gzipWriter{held: make([]byte, 0, gzipMinSize)}
}}

func (w *gzipWriter) WriteHeader(status int) {
	if w.gz != nil {
		w.ResponseWriter.WriteHeader(status)
	} else if w.status == 0 {
		w.status = status
	}
}

func (w *gzipWriter) Write(p []byte) (int, error) {
	if w.gz == nil {
		if len(w.held)+len(p) < gzipMinSize {
			w.held = append(w.held, p...)
			return len(p), nil
		}
		if err := w.startGzip(); err != nil {
			return 0, err
		}
	}
	return w.gz.Write(p)
}

// startGzip commits the response to gzip and compresses the held bytes.
func (w *gzipWriter) startGzip() error {
	h := w.Header()
	h.Set("Content-Encoding", "gzip")
	h.Del("Content-Length") // length of the plain body no longer applies
	if w.status != 0 {
		w.ResponseWriter.WriteHeader(w.status)
	}
	w.gz = gzipPool.Get().(*gzip.Writer)
	w.gz.Reset(w.ResponseWriter)
	_, err := w.gz.Write(w.held)
	return err
}

// Flush commits to gzip, ends the current gzip block and flushes the
// underlying writer, so a streaming endpoint accidentally running
// gzipped still makes progress on the wire.
func (w *gzipWriter) Flush() {
	if w.gz == nil {
		_ = w.startGzip()
	}
	_ = w.gz.Flush()
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// close finishes the response: the held bytes of a small one go out
// as they are, a gzip stream gets its trailer.
func (w *gzipWriter) close() {
	if w.gz == nil {
		if w.status != 0 {
			w.ResponseWriter.WriteHeader(w.status)
		}
		if len(w.held) > 0 {
			_, _ = w.ResponseWriter.Write(w.held)
		}
	} else {
		_ = w.gz.Close()
		w.gz.Reset(io.Discard)
		gzipPool.Put(w.gz)
	}
	*w = gzipWriter{held: w.held[:0]}
	gzipWriterPool.Put(w)
}

// acceptsGzip reports whether the client accepts gzip coding (with the
// same q-value care as media-type negotiation: "gzip;q=0" is a refusal,
// wherever the q parameter appears in the member).
func acceptsGzip(r *http.Request) bool {
	for _, part := range strings.Split(r.Header.Get("Accept-Encoding"), ",") {
		fields := strings.Split(part, ";")
		coding := strings.ToLower(strings.TrimSpace(fields[0]))
		if coding != "gzip" && coding != "*" {
			continue
		}
		refused := false
		for _, p := range fields[1:] {
			k, v, ok := strings.Cut(strings.TrimSpace(p), "=")
			if !ok || !strings.EqualFold(strings.TrimSpace(k), "q") {
				continue
			}
			q := strings.TrimSpace(v)
			refused = strings.HasPrefix(q, "0") && !strings.ContainsAny(q, "123456789")
		}
		if !refused {
			return true
		}
	}
	return false
}

// Gzip compresses responses of at least gzipMinSize bytes, and any
// response the handler flushes, for clients that accept it. Event-stream
// requests are exempt: compressing an unbounded SSE response trades
// per-event latency for ratio, the opposite of what live subscribers
// want.
func Gzip() Middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if !acceptsGzip(r) || strings.Contains(r.Header.Get("Accept"), "text/event-stream") {
				next.ServeHTTP(w, r)
				return
			}
			w.Header().Add("Vary", "Accept-Encoding")
			gw := gzipWriterPool.Get().(*gzipWriter)
			gw.ResponseWriter = w
			defer gw.close()
			next.ServeHTTP(gw, r)
		})
	}
}
