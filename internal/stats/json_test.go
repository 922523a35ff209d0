package stats

import (
	"encoding/json"
	"reflect"
	"sort"
	"testing"
)

// marshalUnmarshalMarshal checks the byte-stability contract the result
// cache depends on: marshal(unmarshal(marshal(x))) == marshal(x).
func marshalUnmarshalMarshal[T any](t *testing.T, v any, out *T) []byte {
	t.Helper()
	b1, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if err := json.Unmarshal(b1, out); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	b2, err := json.Marshal(out)
	if err != nil {
		t.Fatalf("re-marshal: %v", err)
	}
	if string(b1) != string(b2) {
		t.Fatalf("round trip not byte-stable:\n%s\n%s", b1, b2)
	}
	return b1
}

func TestMeanJSONRoundTrip(t *testing.T) {
	var m Mean
	m.Add(3)
	m.Add(0.1) // deliberately awkward binary fraction
	m.Add(1e9)
	var got Mean
	marshalUnmarshalMarshal(t, m, &got)
	if got.N() != m.N() || got.Value() != m.Value() {
		t.Fatalf("restored Mean = (%d, %v), want (%d, %v)", got.N(), got.Value(), m.N(), m.Value())
	}
	var empty, gotEmpty Mean
	marshalUnmarshalMarshal(t, empty, &gotEmpty)
}

func TestHistogramJSONRoundTrip(t *testing.T) {
	h := PaperFig3Buckets()
	for _, v := range []uint64{1, 16, 17, 64, 255, 257, 1000} {
		h.Observe(v)
	}
	var got Histogram
	marshalUnmarshalMarshal(t, h, &got)
	if got.Count() != h.Count() || got.Sum() != h.Sum() || got.Max() != h.Max() {
		t.Fatalf("restored summary (%d,%d,%d) != (%d,%d,%d)",
			got.Count(), got.Sum(), got.Max(), h.Count(), h.Sum(), h.Max())
	}
	wb, wc, wo := h.Buckets()
	gb, gc, go_ := got.Buckets()
	if len(gb) != len(wb) || len(gc) != len(wc) || go_ != wo {
		t.Fatalf("restored buckets differ")
	}
	for i := range wb {
		if gb[i] != wb[i] || gc[i] != wc[i] {
			t.Fatalf("bucket %d: (%d,%d) != (%d,%d)", i, gb[i], gc[i], wb[i], wc[i])
		}
	}
	// Observing after restore keeps working.
	got.Observe(5)
	if got.Count() != h.Count()+1 {
		t.Fatal("restored histogram cannot observe")
	}
}

func TestHistogramJSONRejectsShapeMismatch(t *testing.T) {
	var h Histogram
	if err := json.Unmarshal([]byte(`{"bounds":[1,2],"counts":[0]}`), &h); err == nil {
		t.Fatal("count/bound length mismatch accepted")
	}
}

// TestQuantileJSONRoundTrip also requires a restored quantile to keep
// exactly the bucket range Observe built, so a Result read back from
// the cache equals the one its run produced.
func TestQuantileJSONRoundTrip(t *testing.T) {
	var q, down Quantile
	for v := uint64(1); v <= 10000; v *= 3 {
		q.Observe(v)
		q.Observe(v + 1)
		down.Observe(20000 / v) // the kept range grows downward
	}
	var got Quantile
	b := marshalUnmarshalMarshal(t, q, &got)
	for _, p := range []float64{0.5, 0.95, 0.99} {
		if got.Value(p) != q.Value(p) {
			t.Fatalf("P%v: %d != %d", p*100, got.Value(p), q.Value(p))
		}
	}
	if got.N() != q.N() || got.Min() != q.Min() || got.Max() != q.Max() {
		t.Fatal("restored N/Min/Max differ")
	}
	if !reflect.DeepEqual(got, q) {
		t.Fatalf("restored quantile %+v differs from observed %+v", got, q)
	}
	bucket := func(v uint64) int {
		return sort.Search(len(bucketBounds), func(i int) bool { return bucketBounds[i] >= v })
	}
	if lo, hi := bucket(q.Min()), bucket(q.Max()); q.lo != lo || len(q.counts) != hi-lo+1 {
		t.Fatalf("kept buckets %d..%d, want only %d..%d", q.lo, q.lo+len(q.counts)-1, lo, hi)
	}
	var full struct{ Counts []uint64 }
	if err := json.Unmarshal(b, &full); err != nil || len(full.Counts) != len(bucketBounds)+1 {
		t.Fatalf("marshalled %d counts (%v), want every bucket's %d", len(full.Counts), err, len(bucketBounds)+1)
	}
	var gotDown Quantile
	marshalUnmarshalMarshal(t, down, &gotDown)
	if !reflect.DeepEqual(gotDown, down) {
		t.Fatalf("restored quantile %+v differs from observed %+v", gotDown, down)
	}
	var empty, gotEmpty Quantile
	marshalUnmarshalMarshal(t, empty, &gotEmpty)
	if gotEmpty.N() != 0 {
		t.Fatal("restored empty quantile non-empty")
	}
	if !reflect.DeepEqual(gotEmpty, empty) {
		t.Fatalf("restored empty quantile %+v differs from the zero value", gotEmpty)
	}
}
