package simcache

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
)

// CanonicalJSON is the reference canonicalizer that Canonical must match
// byte for byte: it decodes a JSON document into generic values (numbers
// kept as json.Number text) and re-encodes it with sorted keys. Every
// cache key was first defined by this form.
func CanonicalJSON(raw []byte) ([]byte, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber() // keep numbers textual: no float round-trip drift
	var doc any
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("simcache: parse: %w", err)
	}
	var buf bytes.Buffer
	if err := writeCanonical(&buf, doc); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func writeCanonical(buf *bytes.Buffer, v any) error {
	switch t := v.(type) {
	case map[string]any:
		keys := make([]string, 0, len(t))
		for k := range t {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		buf.WriteByte('{')
		for i, k := range keys {
			if i > 0 {
				buf.WriteByte(',')
			}
			kb, err := json.Marshal(k)
			if err != nil {
				return err
			}
			buf.Write(kb)
			buf.WriteByte(':')
			if err := writeCanonical(buf, t[k]); err != nil {
				return err
			}
		}
		buf.WriteByte('}')
		return nil
	case []any:
		buf.WriteByte('[')
		for i, e := range t {
			if i > 0 {
				buf.WriteByte(',')
			}
			if err := writeCanonical(buf, e); err != nil {
				return err
			}
		}
		buf.WriteByte(']')
		return nil
	case json.Number:
		buf.WriteString(t.String())
		return nil
	default:
		b, err := json.Marshal(t)
		if err != nil {
			return err
		}
		buf.Write(b)
		return nil
	}
}

// checkMatchesReference requires Canonical(v) to be the reference form
// of json.Marshal(v).
func checkMatchesReference(t *testing.T, v any) {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	want, err := CanonicalJSON(raw)
	if err != nil {
		t.Fatalf("reference on %s: %v", raw, err)
	}
	got, err := Canonical(v)
	if err != nil {
		t.Fatalf("Canonical(%s): %v", raw, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Canonical differs from the reference\nmarshal:   %q\ncanonical: %q\nreference: %q", raw, got, want)
	}
}

func TestCanonicalJSONKeyOrder(t *testing.T) {
	type nested struct {
		Y []int `json:"y"`
		X any   `json:"x"`
	}
	type doc struct {
		Nested nested `json:"nested"`
		B      int    `json:"b"`
		A      int    `json:"a"`
	}
	a, err := Canonical(doc{Nested: nested{Y: []int{1, 2}}, B: 2, A: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Canonical(map[string]any{"a": 1, "b": 2, "nested": map[string]any{"x": nil, "y": []int{1, 2}}})
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("canonical forms differ:\n%s\n%s", a, b)
	}
	want := `{"a":1,"b":2,"nested":{"x":null,"y":[1,2]}}`
	if string(a) != want {
		t.Fatalf("canonical = %s, want %s", a, want)
	}
}

func TestCanonicalPreservesNumberText(t *testing.T) {
	// 0.125 must not become 0.12500000000000000..., large uint64s must
	// not lose precision through float64, and a json.Number keeps the
	// exact text it carries.
	got, err := Canonical(struct {
		F float64
		U uint64
		N json.Number
	}{0.125, math.MaxUint64, "1.50E+02"})
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"F":0.125,"N":1.50E+02,"U":18446744073709551615}`; string(got) != want {
		t.Fatalf("canonical = %s, want %s", got, want)
	}
}

// TestCanonicalMatchesReferenceOnOddText covers the text Marshal can
// emit that is not what it writes for a decoded string: escapes and
// invalid UTF-8 a json.Marshaler emits, repeated keys, and invalid
// UTF-8 in a Go string, which Marshal escapes as \ufffd.
func TestCanonicalMatchesReferenceOnOddText(t *testing.T) {
	for _, raw := range []string{
		`{"b":"A\/","a":"\t\u0009"}`,
		`{"b":1,"a":2,"b":3}`,
		`{"a":{"z":1},"a":[2]}`,
		"{\"k\xff\":\"v\xfe\",\"k\":0}",
		`{"\ud800":"😀","~":" <>&"}`,
	} {
		checkMatchesReference(t, json.RawMessage(raw))
	}
	// Enough repeated keys that only a stable sort keeps the last.
	var many []string
	for i := 0; i < 40; i++ {
		many = append(many, fmt.Sprintf(`"%c":%d`, 'a'+i%3, i))
	}
	checkMatchesReference(t, json.RawMessage("{"+strings.Join(many, ",")+"}"))
	checkMatchesReference(t, map[string]string{"\xff": "a\xffb", "z": "\ufffd"})
}

// TestCanonicalizeRejectsMalformed: the canonicalizer reads only
// Marshal's output, but a document cut short or structurally broken is
// an error, never a panic or a truncated result.
func TestCanonicalizeRejectsMalformed(t *testing.T) {
	for _, raw := range []string{``, `{`, `{"a"`, `{"a":`, `{"a":1,`, `["x"`, `[1,`, `"abc`, `"a\`, `{1:2}`, `1}`, `{"a":1}]`} {
		if got, err := canonicalize([]byte(raw)); err == nil {
			t.Errorf("canonicalize(%q) = %q, want an error", raw, got)
		}
	}
}

func TestKeyIsOrderAndLengthSensitive(t *testing.T) {
	k1 := mustKey(t, "ab", "c")
	k2 := mustKey(t, "a", "bc")
	if k1 == k2 {
		t.Fatal("length-prefixing failed: concatenation collision")
	}
	k3 := mustKey(t, "c", "ab")
	if k1 == k3 {
		t.Fatal("part order ignored")
	}
	if k1 != mustKey(t, "ab", "c") {
		t.Fatal("Key is not deterministic")
	}
	if len(k1) != 64 {
		t.Fatalf("key length %d, want 64 hex chars", len(k1))
	}
}

func TestKeyStructEquivalence(t *testing.T) {
	type cfg struct {
		Walkers int
		Entries int
	}
	// Identical values hash identically regardless of how they were
	// produced; different values differ.
	if mustKey(t, cfg{Walkers: 8, Entries: 512}) != mustKey(t, cfg{Entries: 512, Walkers: 8}) {
		t.Fatal("struct literal field order changed the hash")
	}
	if mustKey(t, cfg{Walkers: 8}) == mustKey(t, cfg{Walkers: 16}) {
		t.Fatal("semantic change did not change the hash")
	}
}

// FuzzCanonicalJSON is differential: the fuzz input, decoded into
// generic values (numbers as json.Number), must canonicalize to the
// reference form of its Marshal encoding, and so must the input itself
// when Marshal copies it as a json.RawMessage.
func FuzzCanonicalJSON(f *testing.F) {
	f.Add([]byte(`{"a":1}`))
	f.Add([]byte(`[1,2,{"x":null}]`))
	f.Add([]byte(`"str"`))
	f.Add([]byte(`0.1`))
	f.Add([]byte(`{"\n":1," ":2,"é":3,"éx":4}`))
	f.Add([]byte(`{"s":"<a&b>"}`))
	f.Add([]byte(`[[{"b":1,"a":2}],[{"d":[{"f":0,"e":1}],"c":3}]]`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`18446744073709551615`))
	f.Add([]byte(`1e-07`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		canonicalize(raw) // arbitrary bytes: an error, never a panic
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.UseNumber()
		var doc any
		if err := dec.Decode(&doc); err != nil {
			return // not valid JSON: fine
		}
		checkMatchesReference(t, doc)
		if json.Valid(raw) {
			checkMatchesReference(t, json.RawMessage(raw))
		}
	})
}
