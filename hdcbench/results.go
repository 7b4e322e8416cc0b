package main

import (
	"fmt"
	"os"
	"sort"
	"time"
)

// runState holds a run's inputs, its oracle, and every sample it sent,
// by phase.
type runState struct {
	w       workload
	in      *inputs
	orc     *oracle
	phases  []string
	samples map[string][]sample
	tallies map[string]*tally
}

func (r *runState) keep(phase string, ss []sample) {
	if r.samples == nil {
		r.samples = map[string][]sample{}
	}
	r.phases = append(r.phases, phase)
	r.samples[phase] = ss
}

// firstCorrect sends the workload's first request until a response
// arrives and checks it; set-up time runs from the start of the serving
// process's stack assembly to that first correct response.
func (r *runState) firstCorrect(ch *child) (float64, error) {
	c := newClient(ch.hello.Addr, 1, false)
	defer c.close()
	deadline := time.Now().Add(time.Minute)
	for {
		s := sample{c: r.in.traffic(r.w)[0]}
		c.send(c.conns[0], &s)
		if s.out == outOK {
			if bad, why := r.orc.check([]*sample{&s}, nil); bad > 0 {
				return 0, fmt.Errorf("first response differs from the oracle: %v", why)
			}
			return float64(s.done.UnixNano()-ch.hello.StartNS) / 1e9, nil
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("no response from the serving process within a minute (last: %s, status %d)",
				outcomeNames[s.out], s.statusCode)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// check runs the oracle over every accepted response, marks mismatches,
// tallies outcomes per phase, and returns the mismatch count. An enroll
// acknowledged at an epoch another enroll also claims is a mismatch.
func (r *runState) check() int {
	acked := map[uint64]int{}
	var ranked []*sample
	bad := 0
	for _, p := range r.phases {
		ss := r.samples[p]
		for i := range ss {
			s := &ss[i]
			if s.out != outOK {
				continue
			}
			if s.c.kind != kindEnroll {
				ranked = append(ranked, s)
				continue
			}
			if _, dup := acked[s.epoch]; dup || s.epoch == 0 {
				s.out = outMismatch
				bad++
				continue
			}
			acked[s.epoch] = s.c.ref
		}
	}
	n, why := r.orc.check(ranked, acked)
	for _, w := range why {
		fmt.Fprintln(os.Stderr, "hdcbench: oracle mismatch:", w)
	}
	r.tallies = map[string]*tally{}
	for _, p := range r.phases {
		t := &tally{}
		for _, s := range r.samples[p] {
			t[s.out]++
		}
		r.tallies[p] = t
	}
	return bad + n
}

func (r *runState) total() *tally {
	t := &tally{}
	for _, pt := range r.tallies {
		for o, c := range pt {
			t[o] += c
		}
	}
	return t
}

// latencies returns the from-due latency of accepted samples of the
// given kinds.
func latencies(ss []sample, enroll bool) *timing {
	t := &timing{}
	for _, s := range ss {
		if s.out == outOK && (s.c.kind == kindEnroll) == enroll {
			t.add(s.latencyMS())
		}
	}
	return t
}

// windowRates counts correct completions in consecutive windows of w
// from start (the last, partial window is dropped) and returns each
// window's rate in requests per second.
func windowRates(ss []sample, start time.Time, w time.Duration) []float64 {
	var counts []int
	for _, s := range ss {
		if s.out != outOK {
			continue
		}
		i := int(s.done.Sub(start) / w)
		for len(counts) <= i {
			counts = append(counts, 0)
		}
		counts[i]++
	}
	var rates []float64
	for i := 0; i+1 < len(counts); i++ {
		rates = append(rates, float64(counts[i])/w.Seconds())
	}
	return rates
}

// set records one metric and prints it with its unit, how it was
// measured, and for a per-layer metric what it should move.
func set(res *result, name string, v float64, detail string) {
	var m metric
	for _, c := range append(endToEnd[:len(endToEnd):len(endToEnd)], perLayer...) {
		if c.name == name {
			m = c
		}
	}
	res.Metrics[name] = value{Value: v, Unit: m.unit}
	fmt.Printf("  %-34s %12.4f %-8s %s\n", name, v, m.unit, detail)
	if m.moves != "" {
		fmt.Printf("  %-34s moves %s\n", "", m.moves)
	}
}

// ungated prints a percentile the run reports without a bound: the
// tails, which on a shared host move with other tenants' load.
func ungated(name string, t *timing, q float64) {
	fmt.Printf("  %-34s %12.4f %-8s %s\n", "("+name+", no bound)", t.q(q), "ms", t.describe(q))
}

// e2eMetrics fills the end-to-end metrics of an untraced run.
func (r *runState) e2eMetrics(res *result, paced, sat, enroll []sample, satStart time.Time, satElapsed time.Duration, setups []float64, rep report) {
	lat := latencies(paced, false)
	set(res, "p50_ms", lat.q(0.5), "paced phase, from due time, "+lat.describe(0.5))
	ungated("p90", lat, 0.9)
	ungated("p99", lat, 0.99)
	rps := windowRates(sat, satStart, satWindow)
	set(res, "sat_rps", median(rps), fmt.Sprintf("median over %d windows of %v; %d correct in %v",
		len(rps), satWindow, r.tallies["saturation"][outOK], satElapsed.Round(time.Millisecond)))
	phases := &tally{}
	for _, p := range []string{"paced", "saturation"} {
		for o, c := range r.tallies[p] {
			phases[o] += c
		}
	}
	set(res, "ok_frac", 1-phases.failFrac(), fmt.Sprintf("fail_frac %.6f over both phases: %s", phases.failFrac(), phases))
	src, et := "paced-phase enrolls, from due time", latencies(paced, true)
	if !r.w.sharded {
		src, et = "enroll phase, from due time", latencies(enroll, true)
	}
	set(res, "enroll_p50_ms", et.q(0.5), src+", "+et.describe(0.5))
	ungated("enroll p90", et, 0.9)
	set(res, "setup_s", median(setups), fmt.Sprintf("median of %d assemblies %.3v", len(setups), setups))
	set(res, "mem_mb", rep.MemMB, "peak resident set of the serving process")
}

// layerMetrics fills the per-layer metrics of a traced run from the
// spans of both processes and the serving process's report.
func (r *runState) layerMetrics(res *result, base, traced []sample, rep report, h hello, files [2]string) error {
	server, err := readSpans(files[0])
	if err != nil {
		return fmt.Errorf("server spans: %w", err)
	}
	var client []span
	byReq := map[uint64]*sample{}
	for i := range traced {
		s := &traced[i]
		if s.id == 0 {
			continue
		}
		byReq[s.id] = s
		client = append(client,
			span{ID: s.id, Req: s.id, Name: spanClient, Start: s.due.UnixNano(), End: s.done.UnixNano()},
			span{Parent: s.id, Req: s.id, Name: spanSend, Start: s.sent.UnixNano(), End: s.done.UnixNano()})
	}
	if err := writeSpans(files[1], client); err != nil {
		return fmt.Errorf("client spans: %w", err)
	}

	lag, wait := &timing{}, &timing{}
	for _, s := range traced {
		lag.add(float64(s.lag) / 1e6)
		wait.add(float64(s.wait) / 1e6)
	}
	tl, el := latencies(traced, false), latencies(traced, true)
	set(res, "gen.request_p90_ms", tl.q(0.9), "traced window, from due time, "+tl.describe(0.9))
	set(res, "gen.request_p99_ms", tl.q(0.99), "traced window, from due time, "+tl.describe(0.99))
	set(res, "gen.enroll_p90_ms", el.q(0.9), "traced window, from due time, "+el.describe(0.9))
	set(res, "gen.lag_p99_ms", lag.q(0.99), lag.describe(0.99))
	set(res, "gen.conn_wait_p50_ms", wait.q(0.5), wait.describe(0.5))

	// Handler spans joined to their client request: the ranking
	// requests only (enroll latency has its own metrics).
	var handler, transport, reqKB, clientL, genWait timing
	for _, sp := range server {
		s := byReq[sp.Req]
		if sp.Name != spanHandler || s == nil || s.out != outOK || s.c.kind == kindEnroll {
			continue
		}
		handler.add(sp.ms())
		transport.add(float64(s.done.Sub(s.sent))/1e6 - sp.ms())
		reqKB.add(float64(sp.N) / 1024)
		clientL.add(s.latencyMS())
		genWait.add(float64(s.sent.Sub(s.due)) / 1e6)
	}
	byName := map[string]*timing{}
	probes := map[string]int{}
	weighted := 0.0 // Σ batch duration × probes over readout batches
	for _, sp := range server {
		if sp.Name == spanHandler {
			continue
		}
		if byName[sp.Name] == nil {
			byName[sp.Name] = &timing{}
		}
		byName[sp.Name].add(sp.ms())
		probes[sp.Name] += sp.N
		if sp.Name == spanReadout || sp.Name == spanDist {
			weighted += sp.ms() * float64(sp.N)
		}
	}
	get := func(name string) *timing {
		if t := byName[name]; t != nil {
			return t
		}
		return &timing{}
	}
	embed, readout, distQ, enroll := get(spanEmbed), get(spanReadout), get(spanDist), get(spanEnroll)
	set(res, "serve.http.handler_p50_ms", handler.q(0.5), handler.describe(0.5))
	set(res, "serve.http.handler_p99_ms", handler.q(0.99), handler.describe(0.99))
	set(res, "serve.http.transport_p50_ms", transport.q(0.5), "client round trip minus handler span, "+transport.describe(0.5))
	set(res, "serve.http.req_kb", reqKB.mean(), fmt.Sprintf("mean request body (n=%d)", len(reqKB.samples)))
	readoutP50 := readout.q(0.5)
	if r.w.sharded {
		readoutP50 = distQ.q(0.5)
	}
	set(res, "serve.http.residual_p50_ms", handler.q(0.5)-embed.q(0.5)-rep.QueueWaitP50-readoutP50,
		"handler p50 minus embed, queue wait and readout p50")
	set(res, "serve.coalescer.queue_wait_p50_ms", rep.QueueWaitP50, "Coalescer.Stats, since the stack started")
	set(res, "serve.coalescer.queue_wait_p99_ms", rep.QueueWaitP99, "Coalescer.Stats, since the stack started")
	set(res, "serve.coalescer.timer_flush_frac", rep.TimerFlushFrac, "Coalescer.Stats, traced window")
	batches := len(readout.samples) + len(distQ.samples)
	nProbes := probes[spanReadout] + probes[spanDist]
	set(res, "serve.coalescer.batch_mean", ratio(float64(nProbes), float64(batches)),
		fmt.Sprintf("%d probes in %d querier calls", nProbes, batches))
	set(res, "serve.embed.p50_ms", embed.q(0.5), embed.describe(0.5))
	set(res, "serve.embed.busy_frac", ratio(embed.mean()*float64(len(embed.samples))/1e3, rep.WindowS),
		"summed Embed time per second of the traced window")
	set(res, "infer.readout_p50_ms", readout.q(0.5), readout.describe(0.5))
	set(res, "infer.readout_us_per_probe", ratio(readout.mean()*float64(len(readout.samples))*1e3, float64(probes[spanReadout])),
		fmt.Sprintf("%d probes", probes[spanReadout]))
	set(res, "dist.query_p50_ms", distQ.q(0.5), distQ.describe(0.5))
	set(res, "dist.query_p99_ms", distQ.q(0.99), distQ.describe(0.99))
	set(res, "dist.wire_bytes_per_probe", ratio(float64(rep.WireBytes), float64(probes[spanDist])),
		fmt.Sprintf("%d bytes on shard connections", rep.WireBytes))
	set(res, "dist.enroll_p50_ms", enroll.q(0.5), enroll.describe(0.5))
	set(res, "classmem.wal_bytes_per_enroll", ratio(float64(rep.WALBytes), float64(rep.WALEnrolls)),
		fmt.Sprintf("WAL growth per replica over %d non-compacting flips", rep.WALEnrolls))
	for _, k := range sortedKeys(h.Setup) {
		set(res, k, h.Setup[k], "timed during stack assembly")
	}
	set(res, "go.heap_peak_mb", rep.HeapPeakMB, "runtime/metrics heap objects, sampled every 20ms")
	set(res, "go.gc_cpu_frac", rep.GCCPUFrac, "runtime/metrics GC CPU share, traced window")

	// Self times: mean milliseconds per ranking request, adding up to
	// the client-observed mean latency. The handler's self time is what
	// remains after the embed, queue-wait and readout calls inside it.
	n := float64(len(handler.samples))
	selfEmbed := ratio(embed.mean()*float64(len(embed.samples)), n)
	selfReadout := ratio(weighted, float64(nProbes))
	unattributed := handler.mean() - selfEmbed - rep.QueueWaitMean - selfReadout
	fmt.Printf("  self times, mean ms per request over %d requests (client mean %.4f ms):\n", len(handler.samples), clientL.mean())
	set(res, "self.gen_wait_ms", genWait.mean(), "waiting for a connection or the schedule")
	set(res, "self.transport_ms", transport.mean(), "HTTP transport and client parsing")
	set(res, "self.embed_ms", selfEmbed, "Embed calls")
	set(res, "self.queue_wait_ms", rep.QueueWaitMean, "coalescer queue (Stats mean)")
	set(res, "self.readout_ms", selfReadout, "querier call a probe waits for")
	set(res, "self.unattributed_ms", unattributed, "handler time no outside span covers: decode, encode, admission")
	bl := latencies(base, false)
	set(res, "trace.overhead_p50_ms", tl.q(0.5)-bl.q(0.5),
		fmt.Sprintf("traced p50 %.4f ms (n=%d) minus untraced p50 %.4f ms (n=%d)", tl.q(0.5), len(tl.samples), bl.q(0.5), len(bl.samples)))
	if lag.q(0.99) > maxLagMS {
		fmt.Fprintf(os.Stderr, "hdcbench: generator lag p99 %.2f ms exceeds %d ms: this traced run is not valid\n", lag.q(0.99), maxLagMS)
	}
	fmt.Printf("  spans written to %s and %s\n", files[0], files[1])
	return nil
}

// maxLagMS is the generator lag beyond which a run's schedule, not the
// server, shaped its latencies.
const maxLagMS = 5

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
