package xrand

import (
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("different seeds produced %d identical values", same)
	}
}

func TestZeroSeedWorks(t *testing.T) {
	r := New(0)
	if r.Uint64() == 0 && r.Uint64() == 0 && r.Uint64() == 0 {
		t.Error("zero seed produced a zero stream")
	}
}

func TestUint64nBounds(t *testing.T) {
	r := New(7)
	for _, n := range []uint64{1, 2, 3, 7, 64, 1000, 1 << 40} {
		for i := 0; i < 1000; i++ {
			if v := r.Uint64n(n); v >= n {
				t.Fatalf("Uint64n(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestUint64nZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Uint64n(0) did not panic")
		}
	}()
	New(1).Uint64n(0)
}

func TestUint64nRoughUniformity(t *testing.T) {
	r := New(99)
	const n, samples = 10, 100000
	var counts [n]int
	for i := 0; i < samples; i++ {
		counts[r.Uint64n(n)]++
	}
	want := samples / n
	for b, c := range counts {
		if c < want*9/10 || c > want*11/10 {
			t.Errorf("bucket %d has %d samples, want about %d", b, c, want)
		}
	}
}

func TestIntn(t *testing.T) {
	r := New(3)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(17); v < 0 || v >= 17 {
			t.Fatalf("Intn(17) = %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	for i := 0; i < 10000; i++ {
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

func TestForkIndependence(t *testing.T) {
	parent := New(21)
	child := parent.Fork()
	// The child stream should not be a shifted copy of the parent's.
	same := 0
	for i := 0; i < 100; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("fork produced %d identical values", same)
	}
}

func TestQuickUint64nInRange(t *testing.T) {
	r := New(77)
	f := func(n uint64) bool {
		if n == 0 {
			return true
		}
		return r.Uint64n(n) < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickDeterministicPairs(t *testing.T) {
	f := func(seed uint64) bool {
		a, b := New(seed), New(seed)
		for i := 0; i < 16; i++ {
			if a.Uint64() != b.Uint64() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
