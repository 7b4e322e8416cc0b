package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/dataset"
	"repro/internal/serve"
)

// Serving geometry shared by every workload: hdcserve's default
// dimensionality, the class-memory seed (configuration, not input: it is
// the same in every run), and the ranking depth every request asks for.
const (
	dim       = 1536
	memSeed   = 1
	topK      = 5
	probePool = 256 // distinct dense probes per run
	imageSide = 32  // embed-classify input images are 3×32×32
	images    = 128 // distinct images per run, each sent to both embedders
	minEnroll = 100 // enrolls every run carries (sharded-enroll paced phase, enroll phase elsewhere)
)

// workload is one traffic mix. rate is the paced-phase arrival rate: it
// is fixed here and stated in BENCHMARK.json (a test keeps the two in
// agreement), never derived from a measurement at run time, so the
// parent and the child commit receive the same offered load.
type workload struct {
	name    string
	rate    float64 // paced phase, requests/s
	classes int
	model   string // registered model the traffic classifies against
	embed   bool   // /v1/embed-classify traffic through both embedders
	sharded bool   // router over loopback shard servers, enrolls mixed into the paced phase
}

var workloads = []workload{
	{name: "classify-gateway", rate: 150, classes: 200, model: "binary"},
	{name: "embed-classify", rate: 100, classes: 200, model: "float", embed: true},
	{name: "sharded-enroll", rate: 100, classes: 2000, model: "float", sharded: true},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// Request kinds.
const (
	kindClassify = iota
	kindEmbed
	kindEnroll
)

var kindPaths = [...]string{"/v1/classify", "/v1/embed-classify", "/v1/enroll"}

// call is one pre-marshaled request. ref identifies what the oracle
// checks it against: the probe index for classify, the body index for
// embed-classify (image ref/2 through embedder ref%2), the enroll index
// for enroll.
type call struct {
	kind int
	ref  int
	body []byte
}

// arrival is one scheduled request of the paced phase.
type arrival struct {
	due time.Duration // offset from the phase start
	c   *call
}

// inputs is everything a run sends, drawn from the workload seed.
type inputs struct {
	probes   [][]float32 // dense probes
	classify []*call     // one per probe
	imgs     [][]float32 // flattened 3×32×32 images (embed-classify)
	embeds   []*call     // image i through embedder j is embeds[2i+j]
	enrolls  []*call
	enrollV  [][]float32 // enroll vectors, by enroll index
	labels   []string
}

var embedders = [2]string{"resnet", "resnet-int8"}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// makeInputs draws the probes, images and enroll records of one run.
func makeInputs(w workload, seed int64, nEnroll int) *inputs {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{}
	for p := 0; p < probePool; p++ {
		v := make([]float32, dim)
		for j := range v {
			v[j] = rng.Float32()*2 - 1
		}
		in.probes = append(in.probes, v)
		in.classify = append(in.classify, &call{kind: kindClassify, ref: p,
			body: mustJSON(serve.ClassifyRequest{Model: w.model, K: topK, Embedding: v})})
	}
	if w.embed {
		cfg := dataset.DefaultConfig()
		cfg.NumClasses = 16
		cfg.ImagesPerClass = images / cfg.NumClasses
		cfg.Height, cfg.Width = imageSide, imageSide
		cfg.Seed = seed
		for i, inst := range dataset.Generate(cfg).Instances {
			in.imgs = append(in.imgs, inst.Image.Data)
			for j, e := range embedders {
				in.embeds = append(in.embeds, &call{kind: kindEmbed, ref: 2*i + j,
					body: mustJSON(serve.EmbedClassifyRequest{Model: w.model, Embedder: e, K: topK, Input: inst.Image.Data})})
			}
		}
	}
	for e := 0; e < nEnroll; e++ {
		v := make([]float32, dim)
		for j := range v {
			v[j] = rng.Float32()*2 - 1
		}
		label := fmt.Sprintf("enrolled-s%d-%03d", seed, e)
		in.enrollV = append(in.enrollV, v)
		in.labels = append(in.labels, label)
		in.enrolls = append(in.enrolls, &call{kind: kindEnroll, ref: e,
			body: mustJSON(serve.EnrollRequest{Label: label, Vector: v})})
	}
	return in
}

// traffic returns the pool the workload's classification requests draw
// from.
func (in *inputs) traffic(w workload) []*call {
	if w.embed {
		return in.embeds
	}
	return in.classify
}

// schedule draws an absolute open-loop Poisson schedule at rate over d:
// exponential gaps, each arrival picking a request uniformly from pool.
// With enrolls, exactly len(enrolls) arrivals (a seeded choice) become
// the enroll requests, in order.
func schedule(rng *rand.Rand, rate float64, d time.Duration, pool, enrolls []*call) []arrival {
	var out []arrival
	for t := rng.ExpFloat64() / rate; t < d.Seconds(); t += rng.ExpFloat64() / rate {
		out = append(out, arrival{due: seconds(t), c: pool[rng.Intn(len(pool))]})
	}
	if len(enrolls) > 0 {
		slots := rng.Perm(len(out))[:min(len(enrolls), len(out))]
		sort.Ints(slots)
		for e, s := range slots {
			out[s].c = enrolls[e]
		}
	}
	return out
}

// sequence schedules calls in order at Poisson arrival rate.
func sequence(rng *rand.Rand, rate float64, calls []*call) []arrival {
	out := make([]arrival, len(calls))
	t := 0.0
	for i, c := range calls {
		t += rng.ExpFloat64() / rate
		out[i] = arrival{due: seconds(t), c: c}
	}
	return out
}

func seconds(t float64) time.Duration { return time.Duration(t * float64(time.Second)) }

// enrollCount is the number of enrolls a run carries: ~5% of the paced
// phase's arrivals, but never fewer than minEnroll.
func enrollCount(rate float64, paced time.Duration) int {
	return max(minEnroll, int(math.Round(0.05*rate*paced.Seconds())))
}
