// Command hdcbench is the repository's benchmark: it assembles the
// serving stack from the packages' public constructors, drives it over
// loopback HTTP with an open-loop load generator, checks every response
// against an in-process oracle, and prints the end-to-end metrics (or,
// with --trace 1, the per-layer metrics of a traced run).
//
//	hdcbench/run.sh --workload classify-gateway --seed 1 --seconds 20 --trace 0
//
// Run it from the repository root. The last line of standard output is
// the machine-readable result; the lines before it name every metric
// with its unit and sample count. The workloads, metrics and bounds are
// listed in BENCHMARK.json and explained in hdcbench/README.md.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"
)

// Run geometry. setupReps stack assemblies per untraced run give
// setup_s as a median; warmup precedes the measured phases.
const (
	setupReps  = 3
	warmup     = time.Second
	pacedShare = 0.8 // of --seconds; the rest is the saturation phase
	enrollRate = 50  // req/s of the enroll phase of the single-process workloads
	satWindow  = 500 * time.Millisecond
	buildDir   = ".bench_build"
	runLimit   = 170 * time.Second
)

// watchdog holds the serving process the run-limit timer kills.
var watchdog atomic.Pointer[os.Process]

func main() {
	var (
		name      = flag.String("workload", "", "workload to run: classify-gateway, embed-classify or sharded-enroll")
		seed      = flag.Int64("seed", 1, "workload seed: probes, images, enrolls and the arrival schedule")
		seconds   = flag.Int("seconds", 28, "measured seconds (paced phase plus saturation phase)")
		trace     = flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
		serveMode = flag.Bool("serve", false, "internal: run as the serving process")
		dir       = flag.String("dir", "", "internal: the serving process's state directory")
		spans     = flag.String("spans", "", "internal: where the serving process writes its spans")
	)
	flag.Parse()
	w, err := findWorkload(*name)
	if err == nil && (*trace != 0 && *trace != 1 || *seconds < 3) {
		err = errors.New("--trace must be 0 or 1 and --seconds at least 3")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hdcbench:", err)
		os.Exit(2)
	}
	if *serveMode {
		if err := serveMain(w, *dir, *spans, *trace == 1); err != nil {
			fmt.Fprintln(os.Stderr, "hdcbench serve:", err)
			os.Exit(1)
		}
		return
	}
	// A run that hangs is a failed run: stop the serving process and exit
	// within the time a benchmark run is allowed.
	time.AfterFunc(runLimit, func() {
		if p := watchdog.Load(); p != nil {
			_ = p.Kill()
		}
		fmt.Fprintf(os.Stderr, "hdcbench: run exceeded %v\n", runLimit)
		os.Exit(1)
	})
	res, err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hdcbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hdcbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// child is one serving process.
type child struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	out   *bufio.Reader
	hello hello
}

func startChild(w workload, dir, spans string, traced bool) (*child, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	tr := "0"
	if traced {
		tr = "1"
	}
	cmd := exec.Command(self, "--serve", "--workload", w.name, "--dir", dir, "--spans", spans, "--trace", tr)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	ch := &child{cmd: cmd, stdin: stdin, out: bufio.NewReader(stdout)}
	watchdog.Store(cmd.Process)
	if err := ch.readLine(&ch.hello); err != nil {
		ch.kill()
		return nil, fmt.Errorf("serving process: %w", err)
	}
	return ch, nil
}

func (ch *child) readLine(v any) error {
	line, err := ch.out.ReadBytes('\n')
	if err != nil {
		return err
	}
	return json.Unmarshal(line, v)
}

// stop closes the serving process's stdin, reads its report and waits
// for it to exit.
func (ch *child) stop() (report, error) {
	var rep report
	ch.stdin.Close()
	err := ch.readLine(&rep)
	if werr := ch.cmd.Wait(); err == nil {
		err = werr
	}
	return rep, err
}

func (ch *child) kill() {
	_ = ch.cmd.Process.Kill()
	_ = ch.cmd.Wait()
}

// run is one benchmark run of workload w.
func run(w workload, seed int64, seconds time.Duration, traced bool) (*result, error) {
	if err := os.MkdirAll(filepath.Join(buildDir, "trace"), 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(buildDir, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	paced := time.Duration(pacedShare * float64(seconds)).Round(time.Millisecond)
	sat := seconds - paced
	if traced {
		// The traced run is one paced phase: an untraced baseline third,
		// then the traced window. No saturation or enroll phase.
		paced, sat = seconds, 0
	}
	nEnroll := 0
	if w.sharded || !traced {
		nEnroll = enrollCount(w.rate, paced)
	}
	in := makeInputs(w, seed, nEnroll)
	orc, err := newOracle(w, in)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	// Building the oracle leaves this process a large heap of garbage;
	// collect it now, so the generator does not collect it mid-phase on
	// the cores the serving process runs on.
	debug.FreeOSMemory()
	conns := runtime.NumCPU()
	fmt.Printf("workload %s, seed %d: paced %.0f req/s for %v, saturation %v, %d connections, GOMAXPROCS %d\n",
		w.name, seed, w.rate, paced, sat, conns, runtime.GOMAXPROCS(0))

	r := &runState{w: w, in: in, orc: orc}
	spans := [2]string{
		filepath.Join(buildDir, "trace", fmt.Sprintf("%s-s%d-server.jsonl", w.name, seed)),
		filepath.Join(buildDir, "trace", fmt.Sprintf("%s-s%d-client.jsonl", w.name, seed)),
	}
	reps := setupReps
	if traced {
		reps = 1
	}
	var setups []float64
	var ch *child
	for rep := range reps {
		ch, err = startChild(w, filepath.Join(dir, fmt.Sprint(rep)), spans[0], traced)
		if err != nil {
			return nil, err
		}
		s, err := r.firstCorrect(ch)
		if err == nil && rep < reps-1 {
			_, err = ch.stop()
		}
		if err != nil {
			ch.kill()
			return nil, err
		}
		setups = append(setups, s)
	}
	defer ch.kill()

	c := newClient(ch.hello.Addr, conns, traced)
	defer c.close()
	rng := rand.New(rand.NewSource(seed ^ 0x5c4ed))
	pool := in.traffic(w)
	r.keep("warmup", c.paced(time.Now(), schedule(rng, w.rate, warmup, pool, nil)))
	var mixed []*call // enrolls mixed into the paced phase
	if w.sharded {
		mixed = in.enrolls
	}
	var base, pacedS []sample
	if traced {
		split := len(mixed) / 3
		base = c.paced(time.Now(), schedule(rng, w.rate, paced/3, pool, mixed[:split]))
		r.keep("baseline", base)
		if err := c.toggleTrace(true); err != nil {
			return nil, err
		}
		pacedS = c.paced(time.Now(), schedule(rng, w.rate, paced-paced/3, pool, mixed[split:]))
		if err := c.toggleTrace(false); err != nil {
			return nil, err
		}
	} else {
		pacedS = c.paced(time.Now(), schedule(rng, w.rate, paced, pool, mixed))
	}
	r.keep("paced", pacedS)
	var satS, enrollS []sample
	var satStart time.Time
	var satElapsed time.Duration
	if !traced {
		satStart = time.Now()
		satS, satElapsed = c.saturate(sat, pool, seed)
		r.keep("saturation", satS)
		if !w.sharded {
			enrollS = c.paced(time.Now(), sequence(rng, enrollRate, in.enrolls))
			r.keep("enroll", enrollS)
			r.keep("post-enroll", c.serial(in.classify[:16]))
		}
	}
	c.close()
	rep, err := ch.stop()
	if err != nil {
		return nil, fmt.Errorf("serving process: %w", err)
	}

	mismatches := r.check()
	res := &result{Correct: mismatches == 0, Metrics: map[string]value{}}
	for _, t := range r.tallies {
		res.Attempted += t.sent()
		res.Failed += t.failed()
	}
	fmt.Printf("requests: %s\n", r.total())
	if traced {
		err = r.layerMetrics(res, base, pacedS, rep, ch.hello, spans)
	} else {
		r.e2eMetrics(res, pacedS, satS, enrollS, satStart, satElapsed, setups, rep)
	}
	return res, err
}
