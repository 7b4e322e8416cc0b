package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/classmem"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/hdc"
	"repro/internal/infer"
	"repro/internal/nn"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// oracle recomputes every ranking in this process, apart from the served
// stack: the single-process class memory (classmem.Versioned at epoch 0
// is classmem.Build) queried through a plain engine, the enrolled
// records replayed in epoch order, and for embed-classify the same
// compiled plans run directly on the same images.
type oracle struct {
	w         workload
	in        *inputs
	store     *classmem.Versioned
	want      [][]serve.ClassifyHit // probe → ranking at epoch 0
	wantEmbed [][]serve.ClassifyHit // embed body → ranking at epoch 0
}

func newOracle(w workload, in *inputs) (*oracle, error) {
	o := &oracle{w: w, in: in, store: classmem.NewVersioned(w.classes, dim, memSeed)}
	var err error
	if o.want, err = o.query(in.probes); err != nil {
		return nil, err
	}
	if !w.embed {
		return o, nil
	}
	f32, int8, err := buildPlans()
	if err != nil {
		return nil, err
	}
	embs := make([][]float32, 0, len(in.embeds))
	for _, img := range in.imgs {
		x := tensor.FromSlice(img, 1, 3, imageSide, imageSide)
		for _, plan := range []*nn.CompiledNet{f32, int8} {
			sc := nn.GetScratch()
			embs = append(embs, append([]float32(nil), plan.Infer(x, sc).Row(0)...))
			nn.PutScratch(sc)
		}
	}
	o.wantEmbed, err = o.query(embs)
	return o, err
}

// query ranks dense probes against the oracle store's current epoch.
func (o *oracle) query(probes [][]float32) ([][]serve.ClassifyHit, error) {
	be, err := o.store.Backend(o.w.model)
	if err != nil {
		return nil, err
	}
	eng, err := infer.NewChecked(be)
	if err != nil {
		return nil, err
	}
	x := tensor.New(len(probes), dim)
	for i, p := range probes {
		copy(x.Row(i), p)
	}
	res, err := eng.TryQuery(infer.DenseBatch(x), topK)
	if err != nil {
		return nil, err
	}
	out := make([][]serve.ClassifyHit, len(res))
	for i, r := range res {
		for _, h := range r.TopK {
			out[i] = append(out[i], serve.ClassifyHit{Class: h.Class, Label: h.Label, Score: h.Score})
		}
	}
	return out, nil
}

// sameHits is the byte-for-byte ranking comparison: class, label, and
// the exact bits of the score.
func sameHits(a, b []serve.ClassifyHit) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Class != b[i].Class || a[i].Label != b[i].Label ||
			math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
			return false
		}
	}
	return true
}

// check compares every kept response with the oracle at the epoch the
// response is tagged with. acked maps each enroll's acknowledged epoch
// to its enroll index; the oracle replays those records in epoch order.
// It returns the number of mismatching responses and a description of
// the first few, and marks each mismatching sample. Checking a later
// epoch advances the oracle store, so a run checks its samples once.
func (o *oracle) check(rs []*sample, acked map[uint64]int) (int, []string) {
	var bad int
	var why []string
	fail := func(r *sample, msg string) {
		r.out = outMismatch
		bad++
		if len(why) < 5 {
			why = append(why, fmt.Sprintf("%s ref %d at epoch %d: %s", kindPaths[r.c.kind], r.c.ref, r.epoch, msg))
		}
	}
	byEpoch := map[uint64][]*sample{}
	var epochs []uint64
	for _, r := range rs {
		if _, ok := byEpoch[r.epoch]; !ok {
			epochs = append(epochs, r.epoch)
		}
		byEpoch[r.epoch] = append(byEpoch[r.epoch], r)
	}
	sort.Slice(epochs, func(a, b int) bool { return epochs[a] < epochs[b] })
	for _, e := range epochs {
		group := byEpoch[e]
		for o.store.Epoch() < e {
			next := o.store.Epoch() + 1
			idx, ok := acked[next]
			if !ok {
				for _, r := range group {
					fail(r, fmt.Sprintf("no acknowledged enroll produced epoch %d", next))
				}
				group = nil
				break
			}
			if _, err := o.store.Enroll(o.in.labels[idx], signProto(o.in.enrollV[idx])); err != nil {
				for _, r := range group {
					fail(r, "oracle enroll: "+err.Error())
				}
				group = nil
				break
			}
		}
		if len(group) == 0 {
			continue
		}
		var want [][]serve.ClassifyHit
		if e == 0 {
			want = make([][]serve.ClassifyHit, len(group))
			for i, r := range group {
				if r.c.kind == kindEmbed {
					want[i] = o.wantEmbed[r.c.ref]
				} else {
					want[i] = o.want[r.c.ref]
				}
			}
		} else {
			var keep []*sample
			var probes [][]float32
			for _, r := range group {
				if r.c.kind != kindClassify {
					fail(r, "only /v1/classify is sent after an enroll")
					continue
				}
				keep = append(keep, r)
				probes = append(probes, o.in.probes[r.c.ref])
			}
			if group = keep; len(group) == 0 {
				continue
			}
			var err error
			if want, err = o.query(probes); err != nil {
				for _, r := range group {
					fail(r, "oracle query: "+err.Error())
				}
				continue
			}
		}
		for i, r := range group {
			if !sameHits(r.hits, want[i]) {
				fail(r, fmt.Sprintf("served %v, oracle %v", r.hits, want[i]))
			}
		}
	}
	return bad, why
}

// signProto is the enroll path's prototype: the signs of the dense
// vector, packed (what hdcserve derives from a raw-vector enroll).
func signProto(v []float32) *hdc.Binary {
	bp := make(hdc.Bipolar, len(v))
	for i, x := range v {
		if x < 0 {
			bp[i] = -1
		} else {
			bp[i] = 1
		}
	}
	return hdc.FromBipolar(bp)
}

// buildPlans compiles hdcserve's frozen image encoder at the benchmark's
// geometry, as the oracle's own copy: the f32 plan and the int8 plan
// calibrated on a seed-derived SynthCUB batch. The construction is
// deterministic, so the served stack's plans have the same bits.
func buildPlans() (f32, int8 *nn.CompiledNet, err error) {
	enc := newEncoder()
	if f32, err = compilePlan(enc); err != nil {
		return nil, nil, err
	}
	int8, err = enc.CompiledInt8(calibrationBatch())
	return f32, int8, err
}

func newEncoder() *core.ImageEncoder {
	rng := rand.New(rand.NewSource(memSeed + 0x5eed))
	return core.NewImageEncoder(rng, nn.MicroResNet50Config(8), dim)
}

func compilePlan(enc *core.ImageEncoder) (*nn.CompiledNet, error) {
	plan := enc.Compiled()
	return plan, plan.Precompile(3, imageSide, imageSide)
}

// calibrationBatch is hdcserve's int8 calibration batch at the
// benchmark's image size.
func calibrationBatch() *tensor.Tensor {
	cfg := dataset.DefaultConfig()
	cfg.NumClasses = 8
	cfg.ImagesPerClass = 4
	cfg.Height, cfg.Width = imageSide, imageSide
	cfg.Seed = memSeed + 0xca11b
	data := dataset.Generate(cfg)
	ids := make([]int, len(data.Instances))
	classes := make([]int, cfg.NumClasses)
	for i := range ids {
		ids[i] = i
	}
	for c := range classes {
		classes[c] = c
	}
	return data.MakeBatch(ids, dataset.ClassIndexMap(classes), nil, nil).Images
}
