package stats

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"
)

// Quantile estimates quantiles of a stream using a fixed geometric
// bucket histogram (2% resolution per decade step of 1.07x), so memory
// stays constant regardless of sample count. Good enough for reporting
// P50/P95/P99 of walk latencies. Only the buckets from the one holding
// Min to the one holding Max are kept: a walk-latency distribution
// spans a few dozen of the several hundred.
type Quantile struct {
	counts []uint64 // buckets lo .. lo+len(counts)-1
	lo     int
	total  uint64
	min    uint64
	max    uint64
}

// quantileBase is the per-bucket growth factor.
const quantileBase = 1.07

// bucketBounds precomputes the bucket upper bounds up to ~2^40.
// Truncating 1.07^k to uint64 yields long runs of duplicate low bounds
// (ten buckets bounded by 1, then repeats of 2, 3, ...), which would
// waste buckets and crush resolution for low-latency distributions, so
// the bounds are deduplicated: each bucket's bound is strictly greater
// than its predecessor's. Small values therefore get exact unit-wide
// buckets until the 7% geometric step exceeds 1.
var bucketBounds = func() []uint64 {
	var out []uint64
	v := 1.0
	for v < float64(uint64(1)<<40) {
		if b := uint64(v); len(out) == 0 || b > out[len(out)-1] {
			out = append(out, b)
		}
		v *= quantileBase
	}
	return out
}()

// Observe records one sample.
func (q *Quantile) Observe(v uint64) {
	i := sort.Search(len(bucketBounds), func(i int) bool { return bucketBounds[i] >= v })
	switch {
	case len(q.counts) == 0:
		q.counts, q.lo = make([]uint64, 1), i
		q.min = v
	case i < q.lo:
		grown := make([]uint64, q.lo-i+len(q.counts))
		copy(grown[q.lo-i:], q.counts)
		q.counts, q.lo = grown, i
	case i >= q.lo+len(q.counts):
		q.counts = append(q.counts, make([]uint64, i-q.lo-len(q.counts)+1)...)
	}
	if v < q.min {
		q.min = v
	}
	if v > q.max {
		q.max = v
	}
	q.total++
	q.counts[i-q.lo]++
}

// N returns the number of samples.
func (q *Quantile) N() uint64 { return q.total }

// Min and Max return the exact extremes.
func (q *Quantile) Min() uint64 { return q.min }

// Max returns the largest observed sample.
func (q *Quantile) Max() uint64 { return q.max }

// MarshalJSON emits the summary quantiles plus the raw bucket counts,
// every bucket's, kept or not. The counts (against the package-wide
// deterministic bucket bounds) are what UnmarshalJSON needs to restore
// the estimator exactly; the P50/P95/P99 fields are derived and kept
// for readability.
func (q Quantile) MarshalJSON() ([]byte, error) {
	var counts []uint64
	if len(q.counts) > 0 {
		counts = make([]uint64, len(bucketBounds)+1)
		copy(counts[q.lo:], q.counts)
	}
	return json.Marshal(struct {
		N      uint64   `json:"n"`
		Min    uint64   `json:"min"`
		P50    uint64   `json:"p50"`
		P95    uint64   `json:"p95"`
		P99    uint64   `json:"p99"`
		Max    uint64   `json:"max"`
		Counts []uint64 `json:"counts,omitempty"`
	}{q.total, q.min, q.Value(0.5), q.Value(0.95), q.Value(0.99), q.max, counts})
}

// UnmarshalJSON restores a Quantile written by MarshalJSON, keeping the
// same bucket range Observe would have. The bucket bounds are a package
// constant, so only the counts travel; a payload whose counts do not
// match the current bucketization is rejected rather than silently
// misread.
func (q *Quantile) UnmarshalJSON(b []byte) error {
	var in struct {
		N      uint64   `json:"n"`
		Min    uint64   `json:"min"`
		Max    uint64   `json:"max"`
		Counts []uint64 `json:"counts"`
	}
	if err := json.Unmarshal(b, &in); err != nil {
		return err
	}
	if in.Counts != nil && len(in.Counts) != len(bucketBounds)+1 {
		return fmt.Errorf("stats: quantile has %d buckets, this build uses %d", len(in.Counts), len(bucketBounds)+1)
	}
	lo, hi := 0, len(in.Counts)
	for lo < hi && in.Counts[lo] == 0 {
		lo++
	}
	for hi > lo && in.Counts[hi-1] == 0 {
		hi--
	}
	q.counts, q.lo = nil, 0
	if lo < hi {
		q.counts, q.lo = slices.Clone(in.Counts[lo:hi]), lo
	}
	q.total = in.N
	q.min = in.Min
	q.max = in.Max
	return nil
}

// Value returns the approximate p-quantile (0 < p <= 1) as the upper
// bound of the bucket containing that rank, clamped to [Min, Max].
func (q *Quantile) Value(p float64) uint64 {
	if q.total == 0 {
		return 0
	}
	if p <= 0 {
		return q.min
	}
	if p > 1 {
		p = 1
	}
	rank := uint64(p * float64(q.total))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for j, c := range q.counts {
		seen += c
		if seen >= rank {
			var v uint64
			if i := q.lo + j; i < len(bucketBounds) {
				v = bucketBounds[i]
			} else {
				v = q.max
			}
			if v < q.min {
				v = q.min
			}
			if v > q.max {
				v = q.max
			}
			return v
		}
	}
	return q.max
}
