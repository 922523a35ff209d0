package stats

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram(10, 20, 30)
	for _, v := range []uint64{1, 10, 11, 20, 21, 30, 31, 100} {
		h.Observe(v)
	}
	bounds, counts, overflow := h.Buckets()
	if len(bounds) != 3 {
		t.Fatalf("bounds = %v", bounds)
	}
	want := []uint64{2, 2, 2}
	for i := range want {
		if counts[i] != want[i] {
			t.Errorf("bucket %d count = %d, want %d", i, counts[i], want[i])
		}
	}
	if overflow != 2 {
		t.Errorf("overflow = %d, want 2", overflow)
	}
	if h.Count() != 8 {
		t.Errorf("Count = %d, want 8", h.Count())
	}
	if h.Max() != 100 {
		t.Errorf("Max = %d, want 100", h.Max())
	}
}

func TestHistogramFractions(t *testing.T) {
	h := NewHistogram(5, 10)
	h.Observe(1)
	h.Observe(2)
	h.Observe(7)
	h.Observe(100)
	fr := h.Fractions()
	if fr[0] != 0.5 || fr[1] != 0.25 {
		t.Errorf("fractions = %v", fr)
	}
}

func TestHistogramMean(t *testing.T) {
	h := NewHistogram(100)
	if h.Mean() != 0 {
		t.Error("empty histogram mean should be 0")
	}
	h.Observe(10)
	h.Observe(20)
	if h.Mean() != 15 {
		t.Errorf("Mean = %f, want 15", h.Mean())
	}
}

func TestPaperFig3Buckets(t *testing.T) {
	h := PaperFig3Buckets()
	bounds, _, _ := h.Buckets()
	want := []uint64{16, 32, 48, 64, 80, 256}
	for i, b := range want {
		if bounds[i] != b {
			t.Fatalf("Fig3 bounds = %v, want %v", bounds, want)
		}
	}
	h.Observe(64)
	_, counts, _ := h.Buckets()
	if counts[3] != 1 {
		t.Errorf("64 should land in the 49-64 bucket: %v", counts)
	}
}

func TestHistogramBadBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-increasing bounds did not panic")
		}
	}()
	NewHistogram(10, 10)
}

func TestHistogramString(t *testing.T) {
	h := NewHistogram(10, 20)
	h.Observe(5)
	h.Observe(1000)
	s := h.String()
	if !strings.Contains(s, "1-10") {
		t.Errorf("String output missing bucket label: %q", s)
	}
	if !strings.Contains(s, "21+") {
		t.Errorf("String output missing overflow label: %q", s)
	}
}

func TestQuickHistogramTotals(t *testing.T) {
	f := func(vals []uint64) bool {
		h := PaperFig3Buckets()
		var sum uint64
		for _, v := range vals {
			v %= 1000
			h.Observe(v)
			sum += v
		}
		_, counts, overflow := h.Buckets()
		var n uint64
		for _, c := range counts {
			n += c
		}
		return n+overflow == uint64(len(vals)) && h.Sum() == sum
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMean(t *testing.T) {
	var m Mean
	if m.Value() != 0 {
		t.Error("empty mean should be 0")
	}
	m.Add(2)
	m.Add(4)
	if m.Value() != 3 {
		t.Errorf("Value = %f, want 3", m.Value())
	}
	if m.N() != 2 {
		t.Errorf("N = %d, want 2", m.N())
	}
}

func TestRatio(t *testing.T) {
	var r Ratio
	if r.Rate() != 0 {
		t.Error("empty ratio should be 0")
	}
	r.Hit()
	r.Hit()
	r.Miss()
	if r.Rate() < 0.66 || r.Rate() > 0.67 {
		t.Errorf("Rate = %f", r.Rate())
	}
	if r.Misses() != 1 {
		t.Errorf("Misses = %d", r.Misses())
	}
}

func TestEpochDistinct(t *testing.T) {
	e := NewEpochDistinct(4)
	// Epoch 1: keys 1,2,1,2 -> 2 distinct.
	for _, k := range []uint64{1, 2, 1, 2} {
		e.Access(k)
	}
	// Epoch 2: keys 3,3,3,3 -> 1 distinct.
	for i := 0; i < 4; i++ {
		e.Access(3)
	}
	if e.Epochs() != 2 {
		t.Fatalf("Epochs = %d, want 2", e.Epochs())
	}
	if e.MeanDistinct() != 1.5 {
		t.Errorf("MeanDistinct = %f, want 1.5", e.MeanDistinct())
	}
}

func TestEpochDistinctFinish(t *testing.T) {
	e := NewEpochDistinct(100)
	e.Access(1)
	e.Access(2)
	e.Finish()
	if e.Epochs() != 1 {
		t.Fatalf("partial epoch not flushed")
	}
	if e.MeanDistinct() != 2 {
		t.Errorf("MeanDistinct = %f, want 2", e.MeanDistinct())
	}
	e.Finish() // idempotent with no new accesses
	if e.Epochs() != 1 {
		t.Error("empty Finish created an epoch")
	}
}

func TestEpochDistinctZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero epoch length did not panic")
		}
	}()
	NewEpochDistinct(0)
}

func TestQuantileBasics(t *testing.T) {
	var q Quantile
	if q.Value(0.5) != 0 {
		t.Error("empty quantile should be 0")
	}
	for v := uint64(1); v <= 1000; v++ {
		q.Observe(v)
	}
	if q.N() != 1000 {
		t.Fatalf("N = %d", q.N())
	}
	if q.Min() != 1 || q.Max() != 1000 {
		t.Errorf("min/max = %d/%d", q.Min(), q.Max())
	}
	// 7% bucket resolution: allow +-10% around the true quantile.
	checks := []struct {
		p    float64
		want uint64
	}{{0.5, 500}, {0.95, 950}, {0.99, 990}}
	for _, c := range checks {
		got := q.Value(c.p)
		lo, hi := c.want*85/100, c.want*115/100
		if got < lo || got > hi {
			t.Errorf("P%.0f = %d, want within [%d, %d]", c.p*100, got, lo, hi)
		}
	}
	if q.Value(1.0) != 1000 {
		t.Errorf("P100 = %d, want exactly max", q.Value(1.0))
	}
	if q.Value(0) != 1 {
		t.Errorf("P0 = %d, want exactly min", q.Value(0))
	}
}

func TestQuantileSkewed(t *testing.T) {
	var q Quantile
	// 99 fast samples and 1 huge outlier.
	for i := 0; i < 99; i++ {
		q.Observe(10)
	}
	q.Observe(1_000_000)
	if p50 := q.Value(0.5); p50 > 12 {
		t.Errorf("P50 = %d, want about 10", p50)
	}
	if p100 := q.Value(1); p100 != 1_000_000 {
		t.Errorf("P100 = %d", p100)
	}
}

func TestQuickQuantileMonotone(t *testing.T) {
	var q Quantile
	f := func(vals []uint32) bool {
		for _, v := range vals {
			q.Observe(uint64(v%100000) + 1)
		}
		if q.N() == 0 {
			return true
		}
		return q.Value(0.5) <= q.Value(0.9) && q.Value(0.9) <= q.Value(0.99) &&
			q.Value(0.99) <= q.Value(1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuantileBoundsStrictlyIncreasing(t *testing.T) {
	// Truncating 1.07^k to uint64 used to produce ~10 duplicate
	// bound-1 buckets (and duplicate low bounds generally); the bounds
	// must be deduplicated at init so every bucket is distinct.
	for i := 1; i < len(bucketBounds); i++ {
		if bucketBounds[i] <= bucketBounds[i-1] {
			t.Fatalf("bucketBounds[%d] = %d not above bucketBounds[%d] = %d",
				i, bucketBounds[i], i-1, bucketBounds[i-1])
		}
	}
	if bucketBounds[0] != 1 {
		t.Errorf("first bound = %d, want 1", bucketBounds[0])
	}
}

func TestQuantileSmallValues(t *testing.T) {
	// Low-latency distributions: every small integer needs its own
	// bucket, so quantiles of 1..10 are exact, not bound-1 mush.
	var q Quantile
	for v := uint64(1); v <= 10; v++ {
		for i := 0; i < 10; i++ {
			q.Observe(v)
		}
	}
	for _, c := range []struct {
		p    float64
		want uint64
	}{{0.1, 1}, {0.25, 3}, {0.5, 5}, {0.75, 8}, {0.9, 9}, {1, 10}} {
		if got := q.Value(c.p); got != c.want {
			t.Errorf("P%g = %d, want exactly %d", c.p*100, got, c.want)
		}
	}
}
