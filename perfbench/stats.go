package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile: p90 needs at least 100 samples, p99 at least 1000.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of xs (0 < p ≤
// 100): the smallest sample with at least p% of the samples at or below
// it. xs need not be sorted; it is not modified. An empty sample gives 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), p)-1]
}

// rank is the 1-based nearest rank of the p-th percentile among n
// samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond is the number of samples strictly after the p-th percentile's
// rank among n samples.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, p)
}

// tailOK reports whether n samples hold at least minBeyond samples
// beyond the p-th percentile, the condition for reporting that
// percentile as a tail latency.
func tailOK(n int, p float64) bool { return beyond(n, p) >= minBeyond }

// quartiles returns the first quartile, median and third quartile of xs
// with the same interpolation as Python's statistics.quantiles(xs, n=4)
// (the "exclusive" method), which is what run-to-run spreads are judged
// by. Fewer than two samples give that sample (or 0) three times.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(j int) float64 {
		// statistics.quantiles, method="exclusive": m = n+1,
		// j*m/4 split into integer part and remainder.
		// The clamped rank keeps Python's unclamped delta, so tiny
		// samples extrapolate exactly as Python does.
		pos := j * (len(s) + 1)
		k := min(max(pos/4, 1), len(s)-1)
		delta := pos - 4*k
		return (s[k-1]*float64(4-delta) + s[k]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// median is the middle quartile.
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// ratio is num/den for counts, 0 when den is 0.
func ratio(num, den int64) float64 { return per(float64(num), float64(den)) }

// per is num/den, 0 when den is 0, so a run with nothing completed
// still prints finite metrics.
func per(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// tally counts one workload's operations. An operation fails when it
// returns an error, is rejected at admission, or returns a result whose
// checksum differs from the reference; a request counts as missing the
// latency limit when it is over the limit or failed in any of those
// ways.
type tally struct {
	attempted  int64
	errors     int64
	rejected   int64
	mismatches int64
	overLimit  int64
}

// add folds another tally into t.
func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.errors += o.errors
	t.rejected += o.rejected
	t.mismatches += o.mismatches
	t.overLimit += o.overLimit
}

func (t *tally) failed() int64 { return t.errors + t.rejected + t.mismatches }

// failRatio is failed operations over attempted ones.
func (t *tally) failRatio() float64 { return ratio(t.failed(), t.attempted) }

// sloMissRatio is the share of requests sent that completed over the
// latency limit or failed.
func (t *tally) sloMissRatio() float64 { return ratio(t.overLimit+t.failed(), t.attempted) }
