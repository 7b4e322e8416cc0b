package main

// metric is one reported number. For an end-to-end metric bound is the
// share of the parent commit's median by which it may worsen before a
// change counts as a regression; for a per-layer metric moves names the
// end-to-end metric and workload it should move.
type metric struct {
	name, unit, better string
	bound              float64
	moves              string
}

// endToEnd is what a user of the serving stack sees. A run with
// --trace 0 prints every one of them, on every workload.
var endToEnd = []metric{
	{name: "p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "sat_rps", unit: "req/s", better: "higher", bound: 0.25},
	{name: "ok_frac", unit: "fraction", better: "higher", bound: 0.01},
	{name: "enroll_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "mem_mb", unit: "MB", better: "lower", bound: 0.25},
}

// perLayer is what a run with --trace 1 prints: one metric per layer
// boundary the traced run wraps, the per-layer self times of the
// request (which add up to the client-observed mean latency), and the
// tracing overhead. A layer the workload does not exercise reads 0.
var perLayer = []metric{
	{name: "gen.request_p90_ms", unit: "ms", better: "lower", moves: "the request tail users see, on all workloads; moves with host contention, so it carries no bound"},
	{name: "gen.request_p99_ms", unit: "ms", better: "lower", moves: "the request tail users see, on all workloads; moves with host contention, so it carries no bound"},
	{name: "gen.enroll_p90_ms", unit: "ms", better: "lower", moves: "the enroll tail on sharded-enroll (WAL fsyncs); moves with the host's disk, so it carries no bound"},
	{name: "gen.lag_p99_ms", unit: "ms", better: "lower", moves: "nothing; a large value marks the run invalid"},
	{name: "gen.conn_wait_p50_ms", unit: "ms", better: "lower", moves: "p50_ms and the request tail on all workloads; rises as the paced rate nears sat_rps"},
	{name: "serve.http.handler_p50_ms", unit: "ms", better: "lower", moves: "p50_ms on all workloads"},
	{name: "serve.http.handler_p99_ms", unit: "ms", better: "lower", moves: "gen.request_p90_ms, gen.request_p99_ms on all workloads"},
	{name: "serve.http.transport_p50_ms", unit: "ms", better: "lower", moves: "p50_ms on all workloads"},
	{name: "serve.http.req_kb", unit: "KB", better: "lower", moves: "p50_ms on embed-classify most, then classify-gateway"},
	{name: "serve.http.residual_p50_ms", unit: "ms", better: "lower", moves: "p50_ms on embed-classify most, then classify-gateway"},
	{name: "serve.coalescer.queue_wait_p50_ms", unit: "ms", better: "lower", moves: "p50_ms, sat_rps on classify-gateway most, every workload"},
	{name: "serve.coalescer.queue_wait_p99_ms", unit: "ms", better: "lower", moves: "gen.request_p90_ms on classify-gateway most, every workload"},
	{name: "serve.coalescer.timer_flush_frac", unit: "fraction", better: "lower", moves: "p50_ms, sat_rps on classify-gateway most, every workload"},
	{name: "serve.coalescer.batch_mean", unit: "probes", better: "higher", moves: "sat_rps on classify-gateway most, every workload"},
	{name: "serve.embed.p50_ms", unit: "ms", better: "lower", moves: "p50_ms, sat_rps on embed-classify only"},
	{name: "serve.embed.busy_frac", unit: "fraction", better: "lower", moves: "sat_rps on embed-classify only"},
	{name: "infer.readout_p50_ms", unit: "ms", better: "lower", moves: "sat_rps, a small share, on classify-gateway and embed-classify"},
	{name: "infer.readout_us_per_probe", unit: "us", better: "lower", moves: "sat_rps, a small share, on classify-gateway and embed-classify"},
	{name: "dist.query_p50_ms", unit: "ms", better: "lower", moves: "p50_ms, sat_rps on sharded-enroll only"},
	{name: "dist.query_p99_ms", unit: "ms", better: "lower", moves: "gen.request_p90_ms, gen.request_p99_ms on sharded-enroll only"},
	{name: "dist.wire_bytes_per_probe", unit: "bytes", better: "lower", moves: "p50_ms, sat_rps on sharded-enroll only"},
	{name: "dist.enroll_p50_ms", unit: "ms", better: "lower", moves: "enroll_p50_ms, gen.enroll_p90_ms on sharded-enroll"},
	{name: "classmem.wal_bytes_per_enroll", unit: "bytes", better: "lower", moves: "enroll_p50_ms, gen.enroll_p90_ms on sharded-enroll"},
	{name: "setup.classmem_s", unit: "s", better: "lower", moves: "setup_s on all workloads"},
	{name: "setup.nn_compile_s", unit: "s", better: "lower", moves: "setup_s on embed-classify only"},
	{name: "setup.nn_quantize_s", unit: "s", better: "lower", moves: "setup_s on embed-classify only"},
	{name: "setup.dist_connect_s", unit: "s", better: "lower", moves: "setup_s on sharded-enroll only"},
	{name: "go.heap_peak_mb", unit: "MB", better: "lower", moves: "mem_mb on all workloads"},
	{name: "go.gc_cpu_frac", unit: "fraction", better: "lower", moves: "gen.request_p90_ms, gen.request_p99_ms on all workloads"},
	{name: "self.gen_wait_ms", unit: "ms", better: "lower", moves: "p50_ms: request time before it is sent (connection wait + timer lag)"},
	{name: "self.transport_ms", unit: "ms", better: "lower", moves: "p50_ms: client round trip minus handler time"},
	{name: "self.embed_ms", unit: "ms", better: "lower", moves: "p50_ms on embed-classify only"},
	{name: "self.queue_wait_ms", unit: "ms", better: "lower", moves: "p50_ms on all workloads"},
	{name: "self.readout_ms", unit: "ms", better: "lower", moves: "p50_ms: local readout, or router fan-out and shard round trip on sharded-enroll"},
	{name: "self.unattributed_ms", unit: "ms", better: "lower", moves: "p50_ms: handler time the outside spans cannot attribute (JSON decode and encode, admission, the rest)"},
	{name: "trace.overhead_p50_ms", unit: "ms", better: "lower", moves: "nothing; traced minus untraced p50_ms in the same run"},
}
