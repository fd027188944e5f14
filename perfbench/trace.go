package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// traceHeader carries "<request id>-<parent span id>" across the HTTP hops
// of one traced request: client → gateway → backend.
const traceHeader = "X-Perfbench-Trace"

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the tracer's epoch.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) newID() uint64 { return t.ids.Add(1) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as JSON lines under .bench_build/trace.
func (t *tracer) write(workload string, seed int64) error {
	dir := filepath.Join(".bench_build", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed)))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

type traceKey struct{}

type traceCtx struct{ req, span uint64 }

func parseTraceHeader(v string) (traceCtx, bool) {
	a, b, ok := strings.Cut(v, "-")
	if !ok {
		return traceCtx{}, false
	}
	req, err1 := strconv.ParseUint(a, 10, 64)
	parent, err2 := strconv.ParseUint(b, 10, 64)
	if err1 != nil || err2 != nil {
		return traceCtx{}, false
	}
	return traceCtx{req: req, span: parent}, true
}

func formatTraceHeader(tc traceCtx) string {
	return strconv.FormatUint(tc.req, 10) + "-" + strconv.FormatUint(tc.span, 10)
}

// middleware wraps a handler of one tier ("gateway" or "service"): a
// request carrying the trace header gets a span named <tier>.ingest for
// uploads and <tier>.predict otherwise, and the span's identity travels in
// the request context so the gateway's outgoing backend call can name it
// as parent. The span is closed by a deferred call, so a handler that
// panics still leaves its span behind.
func (t *tracer) middleware(tier string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tc, ok := parseTraceHeader(r.Header.Get(traceHeader))
		if !ok {
			next.ServeHTTP(w, r)
			return
		}
		name := tier + ".predict"
		if r.URL.Path == "/v1/samples" {
			name = tier + ".ingest"
		}
		s := span{ID: t.newID(), Parent: tc.span, Req: tc.req, Name: name, Start: t.now()}
		defer func() {
			s.End = t.now()
			t.record(s)
		}()
		ctx := context.WithValue(r.Context(), traceKey{}, traceCtx{req: tc.req, span: s.ID})
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}

// roundTripper is the transport handed to gateway.Options.HTTPClient: it
// records the gateway → backend hop of a traced request, from sending the
// request to the backend until the gateway has closed the response body.
type roundTripper struct {
	t    *tracer
	base http.RoundTripper
}

func (rt *roundTripper) RoundTrip(r *http.Request) (*http.Response, error) {
	tc, ok := r.Context().Value(traceKey{}).(traceCtx)
	if !ok {
		return rt.base.RoundTrip(r)
	}
	s := span{ID: rt.t.newID(), Parent: tc.span, Req: tc.req, Name: "gateway.hop", Start: rt.t.now()}
	r = r.Clone(r.Context())
	r.Header.Set(traceHeader, formatTraceHeader(traceCtx{req: tc.req, span: s.ID}))
	resp, err := rt.base.RoundTrip(r)
	if err != nil {
		s.End = rt.t.now()
		rt.t.record(s)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, finish: func() {
		s.End = rt.t.now()
		rt.t.record(s)
	}}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	once   sync.Once
	finish func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.finish)
	return err
}

// panicCounter is the net/http ErrorLog sink: it counts the "panic
// serving" reports of handlers that panicked (one Write per report) and
// keeps the stack traces off the console.
type panicCounter struct{ n atomic.Int64 }

func (p *panicCounter) Write(b []byte) (int, error) {
	if bytes.Contains(b, []byte("panic serving")) {
		p.n.Add(1)
	}
	return len(b), nil
}

// spanTree indexes one run's spans for self-time queries.
type spanTree struct {
	children map[uint64][]span
}

func newSpanTree(spans []span) *spanTree {
	t := &spanTree{children: map[uint64][]span{}}
	for _, s := range spans {
		if s.Parent != 0 {
			t.children[s.Parent] = append(t.children[s.Parent], s)
		}
	}
	return t
}

// selfTime is a span's duration minus the part its child spans cover.
func (t *spanTree) selfTime(s span) time.Duration {
	d := s.dur()
	for _, c := range t.children[s.ID] {
		d -= c.dur()
	}
	return d
}
