package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/infer"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// reqHeader carries the generator's request id in traced runs; the
// handler wrapper reads it so server spans join their client span.
const reqHeader = "X-Bench-Request"

// Span names, one per layer boundary the traced run wraps.
const (
	spanClient  = "gen.request"   // due time → response read (client)
	spanSend    = "gen.send"      // send → response read (client)
	spanHandler = "serve.http"    // http.Handler call (server)
	spanEmbed   = "serve.embed"   // Embedder.Embed call
	spanReadout = "infer.readout" // Querier.TryQuery over a local *infer.Engine
	spanDist    = "dist.query"    // Querier.TryQuery over a *dist.Router
	spanEnroll  = "dist.enroll"   // Router.Enroll inside the enroll hook
)

// span is one timed call at a layer boundary. A span links to its
// request (Req) where the call carries one — the handler reads it from
// the request header, the enroll hook from the request context — and to
// its batch otherwise: Embed and TryQuery carry no request, so their
// spans are their own batches of N probes.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req,omitempty"`
	Batch  uint64 `json:"batch,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      int    `json:"n,omitempty"` // probes in the batch, or request body bytes
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer keeps spans in memory while on and writes them out at the end.
// A nil *tracer is the untraced run: the stack is assembled without any
// wrapper.
type tracer struct {
	on    atomic.Bool
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func (t *tracer) add(s span) {
	if s.ID == 0 {
		s.ID = t.ids.Add(1)
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readSpans(path string) ([]span, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []span
	dec := json.NewDecoder(bufio.NewReader(f))
	for dec.More() {
		var s span
		if err := dec.Decode(&s); err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

type reqKey struct{}

// reqRef is the handler span a request's downstream calls link to.
type reqRef struct{ span, req uint64 }

// wrapHandler times every http.Handler call and tags its context with
// the request id from reqHeader.
func (t *tracer) wrapHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		req, _ := strconv.ParseUint(r.Header.Get(reqHeader), 10, 64)
		id := t.ids.Add(1)
		start := time.Now()
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), reqKey{}, reqRef{id, req})))
		t.add(span{ID: id, Parent: req, Req: req, Name: spanHandler,
			Start: start.UnixNano(), End: time.Now().UnixNano(), N: int(r.ContentLength)})
	})
}

// timeCall records fn as a span linked to the request in ctx.
func (t *tracer) timeCall(ctx context.Context, name string, fn func()) {
	if t == nil || !t.on.Load() {
		fn()
		return
	}
	ref, _ := ctx.Value(reqKey{}).(reqRef)
	start := time.Now()
	fn()
	t.add(span{Parent: ref.span, Req: ref.req, Name: name, Start: start.UnixNano(), End: time.Now().UnixNano()})
}

// tracedEmbedder wraps Embedder.Embed.
type tracedEmbedder struct {
	serve.Embedder
	t *tracer
}

func (e tracedEmbedder) Embed(x *tensor.Tensor) (*tensor.Tensor, error) {
	if !e.t.on.Load() {
		return e.Embedder.Embed(x)
	}
	start := time.Now()
	y, err := e.Embedder.Embed(x)
	id := e.t.ids.Add(1)
	e.t.add(span{ID: id, Batch: id, Name: spanEmbed, Start: start.UnixNano(), End: time.Now().UnixNano(), N: x.Dim(0)})
	return y, err
}

// tracedQuerier wraps the querier behind a coalescer: a local
// *infer.Engine (span infer.readout) or a *dist.Router (span
// dist.query). It forwards TryQueryEpoch and Epoch so the coalescer tags
// responses exactly as it does for the bare querier.
type tracedQuerier struct {
	serve.Querier
	t    *tracer
	name string
}

type epochQuerier interface {
	TryQueryEpoch(*infer.Batch, int) ([]infer.Result, uint64, error)
}

func (q tracedQuerier) TryQuery(b *infer.Batch, k int) ([]infer.Result, error) {
	res, _, err := q.TryQueryEpoch(b, k)
	return res, err
}

func (q tracedQuerier) TryQueryEpoch(b *infer.Batch, k int) ([]infer.Result, uint64, error) {
	start := time.Now()
	var res []infer.Result
	var epoch uint64
	var err error
	if eq, ok := q.Querier.(epochQuerier); ok {
		res, epoch, err = eq.TryQueryEpoch(b, k)
	} else {
		res, err = q.Querier.TryQuery(b, k)
		epoch = q.Epoch()
	}
	if q.t.on.Load() {
		id := q.t.ids.Add(1)
		q.t.add(span{ID: id, Batch: id, Name: q.name, Start: start.UnixNano(), End: time.Now().UnixNano(), N: b.Len()})
	}
	return res, epoch, err
}

func (q tracedQuerier) Epoch() uint64 {
	if e, ok := q.Querier.(interface{ Epoch() uint64 }); ok {
		return e.Epoch()
	}
	return 0
}

// countingListener counts the bytes shard connections carry while
// tracing is on.
type countingListener struct {
	net.Listener
	t     *tracer
	bytes *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: c, l: l}, nil
}

type countingConn struct {
	net.Conn
	l countingListener
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if c.l.t.on.Load() {
		c.l.bytes.Add(int64(n))
	}
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if c.l.t.on.Load() {
		c.l.bytes.Add(int64(n))
	}
	return n, err
}
