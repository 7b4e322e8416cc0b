package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/serve"
)

// hello is the serving process's first stdout line: where it listens,
// when stack assembly started (set-up is timed from there to the first
// correct response), and the timed assembly steps.
type hello struct {
	Addr    string             `json:"addr"`
	StartNS int64              `json:"start_ns"`
	Setup   map[string]float64 `json:"setup"`
}

// report is the serving process's last stdout line, written once its
// stdin closes and the stack is torn down.
type report struct {
	MemMB float64 `json:"mem_mb"` // peak resident set (VmHWM)
	// Traced runs only, over the traced window.
	WindowS        float64 `json:"window_s,omitempty"`
	QueueWaitP50   float64 `json:"queue_wait_p50_ms,omitempty"`
	QueueWaitP99   float64 `json:"queue_wait_p99_ms,omitempty"`
	QueueWaitMean  float64 `json:"queue_wait_mean_ms,omitempty"`
	TimerFlushFrac float64 `json:"timer_flush_frac,omitempty"`
	HeapPeakMB     float64 `json:"heap_peak_mb,omitempty"`
	GCCPUFrac      float64 `json:"gc_cpu_frac,omitempty"`
	WireBytes      int64   `json:"wire_bytes,omitempty"`
	WALBytes       int64   `json:"wal_bytes,omitempty"`
	WALEnrolls     int64   `json:"wal_enrolls,omitempty"`
}

// serveMain is the serving process: assemble the stack, serve it over
// loopback HTTP until stdin closes, then report.
func serveMain(w workload, dir, spansFile string, traced bool) error {
	start := time.Now()
	var tr *tracer
	if traced {
		tr = &tracer{}
	}
	st, err := assemble(w, dir, tr)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.close()
		return err
	}
	var win *window
	handler := st.handler
	if tr != nil {
		win = &window{st: st, model: w.model}
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("POST /bench/trace", win.toggle)
		handler = mux
	}
	srv := &http.Server{Handler: handler}
	go func() { _ = srv.Serve(ln) }() // returns ErrServerClosed after Shutdown
	out := json.NewEncoder(os.Stdout)
	if err := out.Encode(hello{Addr: ln.Addr().String(), StartNS: start.UnixNano(), Setup: st.setup}); err != nil {
		st.close()
		return err
	}

	_, _ = io.Copy(io.Discard, os.Stdin) // runs until the driving process closes our stdin

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	shutdownErr := srv.Shutdown(ctx)
	st.close()
	rep := report{MemMB: peakRSSMB()}
	if win != nil {
		win.fill(&rep)
		if err := writeSpans(spansFile, tr.spans); err != nil {
			return err
		}
	}
	if err := out.Encode(rep); err != nil {
		return err
	}
	return shutdownErr
}

// window measures the traced window the driving process opens and
// closes with POST /bench/trace?on=1|0: coalescer counter deltas,
// runtime/metrics deltas, and a sampled heap peak.
type window struct {
	st    *stack
	model string

	mu       sync.Mutex
	start    time.Time
	elapsed  time.Duration
	s0, s1   serve.Stats
	m0, m1   [2]float64 // GC and total CPU seconds
	heapPeak float64
	stopHeap chan struct{}
	heapDone chan struct{}
	closed   bool
}

var rtSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/memory/classes/heap/objects:bytes"},
}

func readRuntime() (gc, total, heap float64) {
	s := append([]metrics.Sample(nil), rtSamples...)
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		}
		return 0
	}
	return val(0), val(1), val(2)
}

func (win *window) coalescerStats() serve.Stats {
	co, err := win.st.reg.Get(win.model)
	if err != nil {
		return serve.Stats{}
	}
	return co.Stats()
}

func (win *window) toggle(w http.ResponseWriter, r *http.Request) {
	on, _ := strconv.ParseBool(r.URL.Query().Get("on"))
	win.mu.Lock()
	defer win.mu.Unlock()
	tr := win.st.tr
	if on == tr.on.Load() {
		http.Error(w, "tracing already in that state", http.StatusConflict)
		return
	}
	if on {
		win.s0 = win.coalescerStats()
		win.m0[0], win.m0[1], win.heapPeak = readRuntime()
		win.stopHeap, win.heapDone = make(chan struct{}), make(chan struct{})
		go win.sampleHeap()
		win.start = time.Now()
		tr.on.Store(true)
	} else {
		tr.on.Store(false)
		win.elapsed = time.Since(win.start)
		close(win.stopHeap)
		<-win.heapDone
		win.s1 = win.coalescerStats()
		win.m1[0], win.m1[1], _ = readRuntime()
		win.closed = true
	}
	w.WriteHeader(http.StatusNoContent)
}

func (win *window) sampleHeap() {
	defer close(win.heapDone)
	t := time.NewTicker(20 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-win.stopHeap:
			return
		case <-t.C:
			if _, _, h := readRuntime(); h > win.heapPeak {
				win.heapPeak = h
			}
		}
	}
}

func (win *window) fill(rep *report) {
	win.mu.Lock()
	defer win.mu.Unlock()
	if !win.closed {
		return
	}
	rep.WindowS = win.elapsed.Seconds()
	if qw := win.s1.QueueWait; qw != nil {
		rep.QueueWaitP50, rep.QueueWaitP99, rep.QueueWaitMean = qw.P50, qw.P99, qw.Mean
	}
	if b := win.s1.Batches - win.s0.Batches; b > 0 {
		rep.TimerFlushFrac = float64(win.s1.TimerFlushes-win.s0.TimerFlushes) / float64(b)
	}
	rep.HeapPeakMB = win.heapPeak / (1 << 20)
	if dt := win.m1[1] - win.m0[1]; dt > 0 {
		rep.GCCPUFrac = (win.m1[0] - win.m0[0]) / dt
	}
	rep.WireBytes = win.st.wire.Load()
	win.st.walMu.Lock()
	rep.WALBytes, rep.WALEnrolls = win.st.walBytes, win.st.walEnrolls
	win.st.walMu.Unlock()
}

// peakRSSMB is this process's peak resident set from /proc (0 where
// the file does not exist).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscan(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
