package obs

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
)

func TestRegistrySampleAndCSV(t *testing.T) {
	r := NewRegistry()
	var walks, pending float64
	var lat []float64
	r.Func("walks", func() float64 { return walks })
	r.Func("pending", func() float64 { return pending })
	r.Func("lat.count", func() float64 { return float64(len(lat)) })
	r.Func("lat.mean", func() float64 {
		sum := 0.0
		for _, v := range lat {
			sum += v
		}
		return sum / float64(len(lat))
	})
	r.Func("lat.max", func() float64 { return slices.Max(lat) })
	r.Func("rate", func() float64 { return 0.5 })

	walks, pending = 3, 2
	lat = append(lat, 10, 20)
	r.Sample(100)

	walks, pending = 4, 0
	lat = append(lat, 60)
	r.Sample(250)

	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "cycle,walks,pending,lat.count,lat.mean,lat.max,rate\n" +
		"100,3,2,2,15,20,0.5\n" +
		"250,4,0,3,30,60,0.5\n"
	if buf.String() != want {
		t.Fatalf("CSV:\n%s\nwant:\n%s", buf.String(), want)
	}
	if r.Rows() != 2 {
		t.Fatalf("rows = %d", r.Rows())
	}
}

// TestRegistryValueFormat pins how CSV cells render: integers bare,
// other values in shortest round-trip form, infinities and NaN named,
// negative zero as 0 — the same rendering as /metrics.
func TestRegistryValueFormat(t *testing.T) {
	r := NewRegistry()
	for i, v := range []float64{math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1), -7, 1e15, 123.5, 1.0 / 3.0} {
		r.Func(fmt.Sprint("c", i), func() float64 { return v })
	}
	r.Sample(9)
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "cycle,c0,c1,c2,c3,c4,c5,c6,c7\n9,+Inf,-Inf,NaN,0,-7,1e+15,123.5,0.3333333333333333\n"
	if buf.String() != want {
		t.Fatalf("CSV:\n%s\nwant:\n%s", buf.String(), want)
	}
}

func TestRegistryDeterministicBytes(t *testing.T) {
	build := func() []byte {
		r := NewRegistry()
		a := 0.0
		r.Func("a", func() float64 { return a })
		r.Func("b", func() float64 { return 1.0 / 3.0 })
		a = 7
		r.Sample(10)
		r.Sample(20)
		var buf bytes.Buffer
		if err := r.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(build(), build()) {
		t.Fatal("identical registries produced different CSV bytes")
	}
}

func TestRegistrySameCycleOverwrites(t *testing.T) {
	r := NewRegistry()
	g := 1.0
	r.Func("g", func() float64 { return g })
	r.Sample(50)
	g = 9
	r.Sample(50)
	if r.Rows() != 1 {
		t.Fatalf("rows = %d, want 1", r.Rows())
	}
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "50,9\n") {
		t.Fatalf("overwrite lost: %s", buf.String())
	}
}

func zero() float64 { return 0 }

func TestRegistryDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate metric did not panic")
		}
	}()
	r := NewRegistry()
	r.Func("x", zero)
	r.Func("x", zero)
}

func TestRegistryLateRegistrationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("registration after sampling did not panic")
		}
	}()
	r := NewRegistry()
	r.Func("x", zero)
	r.Sample(1)
	r.Func("y", zero)
}

func TestRegistryNilSafety(t *testing.T) {
	var r *Registry
	r.Func("x", nil)
	r.Sample(1)
	if r.Rows() != 0 {
		t.Fatal("nil registry recorded something")
	}
	if err := r.WriteCSV(&bytes.Buffer{}); err == nil {
		t.Fatal("WriteCSV on nil registry should error")
	}
}

func TestRegistryCSVQuoting(t *testing.T) {
	r := NewRegistry()
	r.Func(`odd,"name`, func() float64 { return 1 })
	r.Sample(1)
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"odd,\"name"`) {
		t.Fatalf("header not quoted: %s", buf.String())
	}
}

// errWriter fails after n bytes, to exercise error propagation.
type errWriter struct{ n int }

func (w *errWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errors.New("write refused")
	}
	if len(p) > w.n {
		p = p[:w.n]
	}
	w.n -= len(p)
	return len(p), nil
}

func TestRegistryWriteErrorPropagates(t *testing.T) {
	r := NewRegistry()
	r.Func("a", zero)
	for i := 0; i < 20000; i++ {
		r.Sample(uint64(i))
	}
	if err := r.WriteCSV(&errWriter{n: 64}); err == nil {
		t.Fatal("expected write error")
	}
}
