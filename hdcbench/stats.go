package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the sample-count rule for reported percentiles: a
// quantile is only supported by a sample when at least this many
// observations lie beyond it, so p99 needs 1000 samples and p90 needs 100.
const minBeyond = 10

// rank is the 1-based nearest-rank position of the q-quantile in n
// sorted samples: the smallest r with r/n ≥ q.
func rank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// quantile is the nearest-rank q-quantile of samples (sorted ascending).
// It returns 0 for an empty sample.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), q)-1]
}

// beyond counts the samples strictly past the nearest-rank q-quantile.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, q)
}

// supported reports whether n samples support the q-quantile under the
// minBeyond rule.
func supported(n int, q float64) bool { return beyond(n, q) >= minBeyond }

// timing is one latency sample in milliseconds.
type timing struct {
	name    string
	samples []float64
	sorted  bool
}

func (t *timing) add(ms float64) { t.samples = append(t.samples, ms); t.sorted = false }

func (t *timing) q(q float64) float64 {
	if !t.sorted {
		sort.Float64s(t.samples)
		t.sorted = true
	}
	return quantile(t.samples, q)
}

func (t *timing) mean() float64 {
	if len(t.samples) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range t.samples {
		s += v
	}
	return s / float64(len(t.samples))
}

// describe renders a quantile with its sample count, flagging a
// quantile the sample does not support.
func (t *timing) describe(q float64) string {
	n := len(t.samples)
	s := fmt.Sprintf("%.4f ms (n=%d, %d beyond)", t.q(q), n, beyond(n, q))
	if !supported(n, q) {
		s += " UNDERSAMPLED"
	}
	return s
}

// median of an unsorted slice (copied); 0 when empty.
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// outcome classifies one request for the failure accounting.
type outcome int

const (
	outOK        outcome = iota
	outTransport         // connection or protocol error
	outTimeout           // client timeout elapsed
	outShed              // HTTP 429: the coalescer shed the request
	outStatus            // any other non-200 status
	outMismatch          // 200, but the ranking differs from the oracle
	numOutcomes
)

var outcomeNames = [numOutcomes]string{"ok", "transport", "timeout", "shed_429", "status", "mismatch"}

// tally counts outcomes over every request sent.
type tally [numOutcomes]int

func (t *tally) sent() int {
	n := 0
	for _, c := range t {
		n += c
	}
	return n
}

func (t *tally) failed() int { return t.sent() - t[outOK] }

// failFrac is (transport errors + timeouts + non-200s, 429 included +
// oracle mismatches) / sent.
func (t *tally) failFrac() float64 {
	if t.sent() == 0 {
		return 0
	}
	return float64(t.failed()) / float64(t.sent())
}

func (t *tally) String() string {
	s := fmt.Sprintf("sent=%d", t.sent())
	for o, c := range t {
		if c > 0 && outcome(o) != outOK {
			s += fmt.Sprintf(" %s=%d", outcomeNames[o], c)
		}
	}
	return s
}
