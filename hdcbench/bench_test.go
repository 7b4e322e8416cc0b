package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/classmem"
	"repro/internal/infer"
	"repro/internal/serve"
	"repro/internal/tensor"
)

func TestQuantileNearestRank(t *testing.T) {
	s := make([]float64, 1000)
	for i := range s {
		s[i] = float64(i + 1) // 1..1000
	}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, 500}, {0.9, 900}, {0.99, 990}, {0.999, 999}, {1, 1000}, {0, 1}} {
		if got := quantile(s, c.q); got != c.want {
			t.Errorf("quantile(1..1000, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("single sample quantile = %v", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("empty quantile = %v", got)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestSampleCountRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{1000, 0.99, true}, {999, 0.99, false}, {2000, 0.99, true},
		{100, 0.9, true}, {99, 0.9, false},
		{20, 0.5, true}, {19, 0.5, false},
		{0, 0.5, false},
	} {
		if got := supported(c.n, c.q); got != c.want {
			t.Errorf("supported(%d, %v) = %v (beyond %d), want %v", c.n, c.q, got, beyond(c.n, c.q), c.want)
		}
	}
	var tm timing
	for i := 0; i < 500; i++ {
		tm.add(float64(i))
	}
	if d := tm.describe(0.99); !strings.Contains(d, "n=500") || !strings.Contains(d, "UNDERSAMPLED") {
		t.Errorf("describe of an unsupported p99 = %q", d)
	}
}

// gatewayOracle is the classify-gateway oracle over a fresh input set
// with a few enroll records.
func gatewayOracle(t *testing.T, nEnroll int) (*oracle, *inputs) {
	t.Helper()
	w, err := findWorkload("classify-gateway")
	if err != nil {
		t.Fatal(err)
	}
	in := makeInputs(w, 7, nEnroll)
	o, err := newOracle(w, in)
	if err != nil {
		t.Fatal(err)
	}
	return o, in
}

func TestOracleCatchesCorruptedRanking(t *testing.T) {
	o, in := gatewayOracle(t, 0)
	good := func(p int) *sample {
		return &sample{c: in.classify[p], out: outOK, hits: append([]serve.ClassifyHit(nil), o.want[p]...)}
	}
	swapped, score, label, short, class := good(1), good(2), good(3), good(4), good(5)
	swapped.hits[0], swapped.hits[1] = swapped.hits[1], swapped.hits[0]
	score.hits[2].Score = math.Nextafter(score.hits[2].Score, 2)
	label.hits[0].Label += "x"
	short.hits = short.hits[:topK-1]
	class.hits[4].Class++
	ok := good(0)
	bad, why := o.check([]*sample{ok, swapped, score, label, short, class}, nil)
	if bad != 5 {
		t.Fatalf("oracle flagged %d of 5 corrupted rankings: %v", bad, why)
	}
	if ok.out != outOK {
		t.Errorf("the correct ranking was flagged")
	}
	for _, s := range []*sample{swapped, score, label, short, class} {
		if s.out != outMismatch {
			t.Errorf("corrupted ranking of probe %d not marked as a mismatch", s.c.ref)
		}
	}
}

func TestOracleChecksTaggedEpoch(t *testing.T) {
	o, in := gatewayOracle(t, 2)
	// Enroll probe 3 itself as the second class, so it tops probe 3's
	// ranking from epoch 2 on. The expected ranking at epoch 2 comes from
	// an independent store with both records enrolled.
	in.enrollV[1] = in.probes[3]
	ref := classmem.NewVersioned(o.w.classes, dim, memSeed)
	for e := range 2 {
		if _, err := ref.Enroll(in.labels[e], signProto(in.enrollV[e])); err != nil {
			t.Fatal(err)
		}
	}
	be, err := ref.Backend(o.w.model)
	if err != nil {
		t.Fatal(err)
	}
	res, err := infer.New(be).TryQuery(infer.DenseBatch(tensor.FromSlice(in.probes[3], 1, dim)), topK)
	if err != nil {
		t.Fatal(err)
	}
	var want []serve.ClassifyHit
	for _, h := range res[0].TopK {
		want = append(want, serve.ClassifyHit{Class: h.Class, Label: h.Label, Score: h.Score})
	}
	atTwo := &sample{c: in.classify[3], out: outOK, epoch: 2, hits: want}
	atZero := &sample{c: in.classify[3], out: outOK, epoch: 0, hits: want}
	unacked := &sample{c: in.classify[3], out: outOK, epoch: 3, hits: want}
	bad, why := o.check([]*sample{atTwo, atZero, unacked}, map[uint64]int{1: 0, 2: 1})
	if atTwo.out != outOK {
		t.Errorf("ranking at its tagged epoch flagged: %v", why)
	}
	if want[0].Label != in.labels[1] {
		t.Fatalf("enrolled probe is not its own top hit: %v", want)
	}
	if atZero.out != outMismatch {
		t.Errorf("epoch-2 ranking tagged epoch 0 passed")
	}
	if unacked.out != outMismatch || bad < 1 {
		t.Errorf("ranking tagged with an epoch no enroll produced passed")
	}
}

// TestFailFracCounts drives the generator against a stub server that
// sheds, stalls past the client timeout, answers wrongly, or answers
// correctly, and checks what the run counts as failed.
func TestFailFracCounts(t *testing.T) {
	o, in := gatewayOracle(t, 0)
	stall := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req serve.ClassifyRequest
		body, _ := io.ReadAll(r.Body)
		if err := json.Unmarshal(body, &req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		p := -1
		for i, v := range in.probes {
			if v[0] == req.Embedding[0] && v[1] == req.Embedding[1] {
				p = i
			}
		}
		switch p {
		case 0:
			http.Error(w, "shed", http.StatusTooManyRequests)
		case 1:
			<-stall
		case 2:
			hits := append([]serve.ClassifyHit(nil), o.want[2]...)
			hits[0], hits[1] = hits[1], hits[0]
			_ = json.NewEncoder(w).Encode(serve.ClassifyResponse{Model: "binary", TopK: hits})
		case 3:
			http.Error(w, "boom", http.StatusInternalServerError)
		default:
			_ = json.NewEncoder(w).Encode(serve.ClassifyResponse{Model: "binary", TopK: o.want[p]})
		}
	}))
	defer srv.Close()
	defer close(stall)

	c := newClient(strings.TrimPrefix(srv.URL, "http://"), 1, false)
	defer c.close()
	c.conns[0].Timeout = 200 * time.Millisecond
	var arr []arrival
	for p := 0; p < 8; p++ {
		arr = append(arr, arrival{c: in.classify[p]})
	}
	r := &runState{w: o.w, in: in, orc: o}
	r.keep("paced", c.paced(time.Now(), arr))
	if n := r.check(); n != 1 {
		t.Errorf("check found %d mismatches, want 1", n)
	}
	tl := r.tallies["paced"]
	want := tally{outOK: 4, outShed: 1, outTimeout: 1, outMismatch: 1, outStatus: 1}
	if *tl != want {
		t.Fatalf("tally %s, want %s", tl, &want)
	}
	if got := tl.failFrac(); got != 4.0/8 {
		t.Errorf("fail_frac = %v, want 0.5 (429 + timeout + mismatch + 500 of 8)", got)
	}
}

func TestScheduleIsSeeded(t *testing.T) {
	w, _ := findWorkload("sharded-enroll")
	in := makeInputs(w, 3, 10)
	a := schedule(rand.New(rand.NewSource(3)), w.rate, 5*time.Second, in.classify, in.enrolls)
	b := schedule(rand.New(rand.NewSource(3)), w.rate, 5*time.Second, in.classify, in.enrolls)
	if len(a) != len(b) || len(a) < 400 || len(a) > 600 {
		t.Fatalf("schedules of %d and %d arrivals at %v req/s over 5s", len(a), len(b), w.rate)
	}
	next := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs between equal seeds", i)
		}
		if i > 0 && a[i].due < a[i-1].due {
			t.Fatalf("schedule not in due order at %d", i)
		}
		if a[i].c.kind == kindEnroll {
			if a[i].c.ref != next {
				t.Fatalf("enroll %d scheduled out of order", a[i].c.ref)
			}
			next++
		}
	}
	if next != 10 {
		t.Errorf("%d enrolls scheduled, want 10", next)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json, which the harness running the
// benchmark reads, in agreement with the metric and workload tables.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name, Why string
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || !strings.Contains(b.Workloads[i].Why, fmt.Sprintf("paced at %g req/s", w.rate)) {
			t.Errorf("workload %d: BENCHMARK.json has %+v, want %s paced at %g req/s", i, b.Workloads[i], w.name, w.rate)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the benchmark reports %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		e := b.EndToEnd[i]
		if e.Name != m.name || e.Unit != m.unit || e.Better != m.better || e.Bound != m.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, benchmark %+v", i, e, m)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark reports %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		e := b.PerLayer[i]
		if e.Name != m.name || e.Unit != m.unit || e.Better != m.better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, benchmark %+v", i, e, m)
		}
	}
}
