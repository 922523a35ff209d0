package simcache_test

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"gpuwalk"
	"gpuwalk/internal/simcache"
)

// TestCanonicalConfigMatchesReference: for randomly perturbed configs,
// with every serialized field varied, Canonical agrees byte for byte
// with the reference canonicalizer applied to the Marshal encoding, so
// ConfigHash keys are those the reference defined.
func TestCanonicalConfigMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 300; n++ {
		cfg := gpuwalk.DefaultConfig()
		perturb(t, rng, reflect.ValueOf(&cfg).Elem())
		raw, err := json.Marshal(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := simcache.CanonicalJSON(raw)
		if err != nil {
			t.Fatal(err)
		}
		got, err := simcache.Canonical(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("config %d: Canonical differs from the reference\ncanonical: %s\nreference: %s", n, got, want)
		}
	}
}

var (
	perturbInts   = []int64{0, 1, -1, 7, 4096, math.MaxInt32, math.MinInt64, math.MaxInt64}
	perturbUints  = []uint64{0, 1, 12, 50000, math.MaxUint32, math.MaxUint64}
	perturbFloats = []float64{0, 1e-7, 0.125, 0.1, -2.5, 1e21, 1e20, 123456789.0625, math.SmallestNonzeroFloat64, math.MaxFloat64}
	perturbText   = []string{"", "MVT", "simt-aware", "<&>", "é", "\n\"\\", " ", "\xff", "\ufffd"}
)

// perturb sets every serialized field reachable from v to a random
// value. It fails on a field kind it does not know, so a new kind of
// Config field cannot go unvaried.
func perturb(t *testing.T, rng *rand.Rand, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).Tag.Get("json") != "-" {
				perturb(t, rng, v.Field(i))
			}
		}
	case reflect.Bool:
		v.SetBool(rng.Intn(2) == 1)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(perturbInts[rng.Intn(len(perturbInts))]) // truncates to the field's width
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(perturbUints[rng.Intn(len(perturbUints))])
	case reflect.Float32, reflect.Float64:
		v.SetFloat(perturbFloats[rng.Intn(len(perturbFloats))])
	case reflect.String:
		v.SetString(perturbText[rng.Intn(len(perturbText))])
	case reflect.Interface:
		// CustomScheduler: code, not data; ConfigHash refuses a non-nil one.
	default:
		t.Fatalf("perturb: unhandled field kind %s (%s)", v.Kind(), v.Type())
	}
}
