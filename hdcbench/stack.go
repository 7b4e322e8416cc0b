package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/classmem"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/hdc"
	"repro/internal/infer"
	"repro/internal/serve"
)

// coalescerConfig is what hdcserve ships by default: MaxBatch 32,
// MaxDelay 2ms, watermark 4×MaxBatch, serve's defaults for the rest.
var coalescerConfig = serve.Config{MaxBatch: 32, MaxDelay: 2 * time.Millisecond, Watermark: 4 * 32}

// Shard-side settings of the sharded workload: hdcshard's
// -snapshot-every default and hdcserve's -shard-timeout default.
const (
	snapshotEvery = 64
	shardTimeout  = 2 * time.Second
)

// stack is one assembled serving stack: the registry behind
// serve.NewHandler, the enroll hook, and what Close must tear down.
type stack struct {
	reg     *serve.Registry
	handler http.Handler
	tr      *tracer // nil: untraced, no wrapper anywhere
	setup   map[string]float64
	stores  []*classmem.Versioned
	router  *dist.Router
	shards  []*dist.ShardServer

	wire       atomic.Int64 // shard connection bytes while tracing
	walMu      sync.Mutex
	walBytes   int64 // WAL growth over enrolls that did not compact
	walEnrolls int64
}

// assemble builds the workload's serving stack from the packages'
// public constructors, as cmd/hdcserve and cmd/hdcshard do. dir holds
// the shard WALs.
func assemble(w workload, dir string, tr *tracer) (*stack, error) {
	st := &stack{reg: serve.NewRegistry(), tr: tr, setup: map[string]float64{
		"setup.classmem_s": 0, "setup.nn_compile_s": 0, "setup.nn_quantize_s": 0, "setup.dist_connect_s": 0,
	}}
	var err error
	var enroll func(context.Context, serve.EnrollRequest) (uint64, error)
	if w.sharded {
		enroll, err = st.assembleSharded(w, dir)
	} else {
		enroll, err = st.assembleLocal(w)
	}
	if err != nil {
		st.close()
		return nil, err
	}
	st.handler = serve.NewHandler(st.reg, serve.Hooks{Enroll: enroll})
	if tr != nil {
		st.handler = tr.wrapHandler(st.handler)
	}
	return st, nil
}

func timed(into map[string]float64, key string, fn func() error) error {
	start := time.Now()
	err := fn()
	into[key] = time.Since(start).Seconds()
	return err
}

func (st *stack) querier(q serve.Querier, span string) serve.Querier {
	if st.tr == nil {
		return q
	}
	return tracedQuerier{Querier: q, t: st.tr, name: span}
}

func (st *stack) embedder(e serve.Embedder) serve.Embedder {
	if st.tr == nil {
		return e
	}
	return tracedEmbedder{Embedder: e, t: st.tr}
}

// storeQuerier is hdcserve's engine over the store's published epoch.
func storeQuerier(store *classmem.Versioned, model string) (*infer.Engine, error) {
	be, err := store.Backend(model)
	if err != nil {
		return nil, err
	}
	return infer.NewChecked(be, infer.WithEpoch(store.Epoch()))
}

// assembleLocal is the single-process hdcserve stack: one versioned
// class memory, one engine behind one coalescer, the embedders for
// embed-classify, and hdcserve's local enroll path (enroll into the
// store, then swap the grown engine behind the coalescer).
func (st *stack) assembleLocal(w workload) (func(context.Context, serve.EnrollRequest) (uint64, error), error) {
	var store *classmem.Versioned
	_ = timed(st.setup, "setup.classmem_s", func() error {
		store = classmem.NewVersioned(w.classes, dim, memSeed)
		return nil
	})
	st.stores = append(st.stores, store)
	eng, err := storeQuerier(store, w.model)
	if err != nil {
		return nil, err
	}
	co := serve.NewCoalescer(st.querier(eng, spanReadout), coalescerConfig)
	if err := st.reg.Register(w.model, co); err != nil {
		co.Close()
		return nil, err
	}
	if w.embed {
		var enc *core.ImageEncoder
		shape := []int{3, imageSide, imageSide}
		err := timed(st.setup, "setup.nn_compile_s", func() error {
			enc = newEncoder()
			plan, err := compilePlan(enc)
			if err == nil {
				err = st.reg.RegisterEmbedder(embedders[0], st.embedder(serve.NewNetEmbedder(embedders[0], plan, shape, dim)))
			}
			return err
		})
		if err == nil {
			err = timed(st.setup, "setup.nn_quantize_s", func() error {
				plan, err := enc.CompiledInt8(calibrationBatch())
				if err == nil {
					err = st.reg.RegisterEmbedder(embedders[1], st.embedder(serve.NewNetEmbedder(embedders[1], plan, shape, dim)))
				}
				return err
			})
		}
		if err != nil {
			return nil, err
		}
	}
	var mu sync.Mutex
	return func(_ context.Context, req serve.EnrollRequest) (uint64, error) {
		proto, err := enrollProto(req)
		if err != nil {
			return 0, err
		}
		mu.Lock()
		defer mu.Unlock()
		epoch, err := store.Enroll(req.Label, proto)
		if err != nil {
			return 0, err
		}
		eng, err := storeQuerier(store, w.model)
		if err != nil {
			return 0, err
		}
		return epoch, co.SwapQuerier(st.querier(eng, spanReadout))
	}, nil
}

// assembleSharded is `hdcserve -router` in front of two hdcshard
// servers on loopback TCP: 2 class ranges × 2 replicas, the tail range
// growing from a WAL-durable versioned store per server. Each server's
// frozen range is a range view over its own store's epoch-0 memory —
// hdcshard builds a second, identical memory for it; one build per
// server keeps the repeated set-up affordable and serves the same bits.
func (st *stack) assembleSharded(w workload, dir string) (func(context.Context, serve.EnrollRequest) (uint64, error), error) {
	const nodes = 2
	lns := make([]net.Listener, nodes)
	addrs := make([]string, nodes)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	layout, err := dist.BuildLayout(w.model, w.classes, dim, 2, addrs, 2)
	if err == nil {
		err = timed(st.setup, "setup.classmem_s", func() error {
			return st.buildShards(w, dir, layout, addrs)
		})
	}
	if err != nil {
		for _, l := range lns {
			l.Close()
		}
		return nil, err
	}
	for i, srv := range st.shards {
		var ln net.Listener = lns[i]
		if st.tr != nil {
			ln = countingListener{Listener: ln, t: st.tr, bytes: &st.wire}
		}
		go func() { _ = srv.Serve(ln) }() // nil after Close; a shard that dies fails queries, which the run counts
	}
	err = timed(st.setup, "setup.dist_connect_s", func() error {
		st.router, err = dist.NewRouter(layout, dist.RouterConfig{ShardTimeout: shardTimeout})
		return err
	})
	if err != nil {
		return nil, err
	}
	co := serve.NewCoalescer(st.querier(st.router, spanDist), coalescerConfig)
	if err := st.reg.Register(st.router.Name(), co); err != nil {
		co.Close()
		return nil, err
	}
	return func(ctx context.Context, req serve.EnrollRequest) (uint64, error) {
		proto, err := enrollProto(req)
		if err != nil {
			return 0, err
		}
		if st.tr == nil || !st.tr.on.Load() {
			return st.router.Enroll(req.Label, proto)
		}
		// Traced: hold the WAL accounting across the flip so the size
		// change is this enroll's (flips serialize in the router anyway).
		st.walMu.Lock()
		defer st.walMu.Unlock()
		before := make([]int64, len(st.stores))
		for i, s := range st.stores {
			before[i] = s.WALBytes()
		}
		var epoch uint64
		st.tr.timeCall(ctx, spanEnroll, func() { epoch, err = st.router.Enroll(req.Label, proto) })
		for i, s := range st.stores {
			if after := s.WALBytes(); after >= before[i] {
				st.walBytes += after - before[i]
				st.walEnrolls++
			}
		}
		return epoch, err
	}, nil
}

// buildShards builds one shard server per node concurrently, as
// separately started hdcshard processes would.
func (st *stack) buildShards(w workload, dir string, layout dist.Layout, addrs []string) error {
	srvs := make([]*dist.ShardServer, len(addrs))
	stores := make([]*classmem.Versioned, len(addrs))
	errs := make([]error, len(addrs))
	var wg sync.WaitGroup
	for i, addr := range addrs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			srvs[i], stores[i], errs[i] = buildShard(w, filepath.Join(dir, fmt.Sprintf("node%d", i)), layout.RangesFor(addr))
		}()
	}
	wg.Wait()
	for i := range addrs {
		if stores[i] != nil {
			st.stores = append(st.stores, stores[i])
		}
		if srvs[i] != nil {
			st.shards = append(st.shards, srvs[i])
		}
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// buildShard is hdcshard's buildServer for one node's ranges.
func buildShard(w workload, walDir string, ranges [][2]int) (*dist.ShardServer, *classmem.Versioned, error) {
	store, err := classmem.OpenVersioned(walDir, w.classes, dim, memSeed, snapshotEvery)
	if err != nil {
		return nil, nil, err
	}
	global, err := store.Snapshot().Mem.Backend(w.model)
	if err != nil {
		store.Close()
		return nil, nil, err
	}
	var growing *dist.GrowingSlab
	var slabs []dist.Slab
	for _, r := range ranges {
		if r[1] == w.classes {
			growing = &dist.GrowingSlab{Base: r[0], Width: r[1] - r[0], Backend: w.model, Store: store}
			continue
		}
		eng, err := infer.NewChecked(infer.NewRangeBackend(global, r[0], r[1]))
		if err != nil {
			store.Close()
			return nil, nil, err
		}
		slabs = append(slabs, dist.Slab{Base: r[0], Engine: eng})
	}
	srv, err := dist.NewShardServer(slabs, growing)
	if err != nil {
		store.Close()
		return nil, nil, err
	}
	return srv, store, nil
}

// enrollProto is hdcserve's raw-vector enroll: the packed signs of the
// vector. The benchmark sends no example-bundling enrolls.
func enrollProto(req serve.EnrollRequest) (*hdc.Binary, error) {
	if len(req.Vector) != dim {
		return nil, fmt.Errorf("%w: enroll vector has %d components, the class memory expects %d (examples form not assembled)",
			serve.ErrBadInput, len(req.Vector), dim)
	}
	return signProto(req.Vector), nil
}

// close tears the stack down in hdcserve's order: coalescers, router,
// shard servers, stores.
func (st *stack) close() {
	st.reg.Close()
	if st.router != nil {
		st.router.Close()
	}
	for _, s := range st.shards {
		s.Close()
	}
	for _, s := range st.stores {
		s.Close()
	}
}
