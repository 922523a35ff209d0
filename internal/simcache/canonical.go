// Package simcache is a persistent content-addressed store for
// simulation results. Keys are SHA-256 digests of canonicalized inputs
// (configuration, workload spec, seed, simulator version), values are
// opaque payloads (in practice the JSON encoding of a gpu.Result).
//
// The store is durable and crash-safe: every write goes through
// internal/atomicio (temp file + rename), every read from disk verifies
// the payload's digest before returning it, and a corrupted or
// truncated entry is treated as a miss and dropped; a hit on a payload
// still held in memory returns it as verified when it entered (see
// Cache). Each object's name carries its digest, and the store keeps
// entry sizes and last-use order in memory to enforce an LRU byte cap.
//
// See docs/SERVER.md for the on-disk layout and the services built on
// top of it (cmd/gpuwalkd, examples/sensitivity).
package simcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"
	"unicode/utf8"
)

// Canonical returns a canonical JSON encoding of v: json.Marshal's
// output with each object's members sorted by key, and number and
// string text exactly as Marshal writes it. Two values whose encodings
// differ only in member order canonicalize to identical bytes, which
// is what makes the encoding safe to hash.
//
// Every cache key hashes this form, so it must never drift: it is byte
// for byte what the reference in canonical_test.go produces by decoding
// Marshal's output into generic values and re-encoding them. So keys
// sort by their decoded text, a repeated key keeps its last value, and
// a string whose text is not what Marshal writes for its decoded value
// (text from a json.Marshaler, or the \ufffd Marshal writes for invalid
// UTF-8) is re-encoded.
func Canonical(v any) ([]byte, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("simcache: marshal: %w", err)
	}
	return canonicalize(raw)
}

// canonicalize rewrites compact JSON (Marshal's output) in canonical
// form. Each object's members are written in their original order and
// then re-ordered where they stand, at the end of the output.
func canonicalize(src []byte) ([]byte, error) {
	c := canonicalizer{src: src, dst: make([]byte, 0, len(src)), tmp: make([]byte, 0, len(src))}
	i, err := c.value(0)
	if err == nil && i != len(src) {
		err = c.syntaxError(i)
	}
	if err != nil {
		return nil, err
	}
	return c.dst, nil
}

type canonicalizer struct {
	src, dst []byte
	tmp      []byte   // copy of the object being re-ordered
	members  []member // members of the open objects, innermost last
}

// member is one object member, written to dst[start:end] as key:value.
type member struct {
	key        []byte // decoded key text
	start, end int
}

// at returns src[i], or 0 past the end.
func (c *canonicalizer) at(i int) byte {
	if i < len(c.src) {
		return c.src[i]
	}
	return 0
}

func (c *canonicalizer) syntaxError(i int) error {
	return fmt.Errorf("simcache: canonicalize: malformed JSON at offset %d", i)
}

// value writes the value starting at src[i] and returns the offset
// just past it.
func (c *canonicalizer) value(i int) (int, error) {
	switch c.at(i) {
	case '{':
		return c.object(i)
	case '[':
		c.dst = append(c.dst, '[')
		i++
		if c.at(i) != ']' {
			for {
				var err error
				if i, err = c.value(i); err != nil {
					return 0, err
				}
				if c.at(i) != ',' {
					break
				}
				c.dst = append(c.dst, ',')
				i++
			}
		}
		if c.at(i) != ']' {
			return 0, c.syntaxError(i)
		}
		c.dst = append(c.dst, ']')
		return i + 1, nil
	case '"':
		end, _, err := c.str(i)
		return end, err
	}
	// A number, true, false or null: Marshal's text, kept as is.
	j := i
	for j < len(c.src) && c.src[j] != ',' && c.src[j] != ']' && c.src[j] != '}' {
		j++
	}
	if j == i {
		return 0, c.syntaxError(i)
	}
	c.dst = append(c.dst, c.src[i:j]...)
	return j, nil
}

func (c *canonicalizer) object(i int) (int, error) {
	c.dst = append(c.dst, '{')
	first := len(c.dst)
	base := len(c.members)
	i++
	if c.at(i) != '}' {
		for {
			start := len(c.dst)
			j, key, err := c.str(i)
			if err != nil {
				return 0, err
			}
			if c.at(j) != ':' {
				return 0, c.syntaxError(j)
			}
			c.dst = append(c.dst, ':')
			if i, err = c.value(j + 1); err != nil {
				return 0, err
			}
			c.members = append(c.members, member{key: key, start: start, end: len(c.dst)})
			if c.at(i) != ',' {
				break
			}
			c.dst = append(c.dst, ',')
			i++
		}
	}
	if c.at(i) != '}' {
		return 0, c.syntaxError(i)
	}

	// Re-order the members, which fill dst from first on, by key.
	ms := c.members[base:]
	c.members = c.members[:base]
	slices.SortStableFunc(ms, func(a, b member) int { return bytes.Compare(a.key, b.key) })
	c.tmp = append(c.tmp[:0], c.dst[first:]...)
	c.dst = c.dst[:first]
	for k, m := range ms {
		if k+1 < len(ms) && bytes.Equal(m.key, ms[k+1].key) {
			continue // a repeated key keeps its last value
		}
		if len(c.dst) > first {
			c.dst = append(c.dst, ',')
		}
		c.dst = append(c.dst, c.tmp[m.start-first:m.end-first]...)
	}
	c.dst = append(c.dst, '}')
	return i + 1, nil
}

// str writes the string starting at src[i] and returns the offset just
// past it and its decoded text. Text without escapes or invalid UTF-8
// is what Marshal writes for the string it decodes to, and is copied;
// any other string is decoded and re-encoded.
func (c *canonicalizer) str(i int) (int, []byte, error) {
	if c.at(i) != '"' {
		return 0, nil, c.syntaxError(i)
	}
	j, escaped := i+1, false
	for ; j < len(c.src) && c.src[j] != '"'; j++ {
		if c.src[j] == '\\' {
			escaped = true
			j++
		}
	}
	if j >= len(c.src) {
		return 0, nil, c.syntaxError(i)
	}
	tok := c.src[i : j+1]
	if text := tok[1 : len(tok)-1]; !escaped && utf8.Valid(text) {
		c.dst = append(c.dst, tok...)
		return j + 1, text, nil
	}
	var s string
	if err := json.Unmarshal(tok, &s); err != nil {
		return 0, nil, fmt.Errorf("simcache: canonicalize: string at offset %d: %w", i, err)
	}
	enc, _ := json.Marshal(s) // a string always encodes
	c.dst = append(c.dst, enc...)
	return j + 1, []byte(s), nil
}

// Key derives a content-address from the canonical encodings of parts.
// Each part is length-prefixed before hashing so no two distinct part
// sequences can collide by concatenation ("ab","c" vs "a","bc").
func Key(parts ...any) (string, error) {
	h := sha256.New()
	var lenbuf [8]byte
	for _, p := range parts {
		c, err := Canonical(p)
		if err != nil {
			return "", err
		}
		binary.BigEndian.PutUint64(lenbuf[:], uint64(len(c)))
		h.Write(lenbuf[:])
		h.Write(c)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// PayloadDigest returns the hex SHA-256 of a stored payload; it is the
// integrity check recorded in the index and verified on every Get.
func PayloadDigest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
