package main

// A minimal reader for the gzipped protocol-buffer profiles that
// runtime/pprof writes, enough to split a CPU profile by package. It
// decodes only the fields it needs: samples (location IDs and values),
// locations (their inlined lines' function IDs), functions (name
// string index) and the string table.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

var errProto = errors.New("malformed profile protobuf")

// eachField calls fn for every top-level field of one protobuf
// message. v carries varint and fixed-width values; data carries
// length-delimited payloads.
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num := int(key >> 3)
		var v uint64
		var data []byte
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return errProto
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendUints appends a repeated integer field's values, which the
// encoder writes either packed (data set) or one per field (v).
func appendUints(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, errProto
		}
		dst, data = append(dst, x), data[n:]
	}
	return dst, nil
}

// profSample is one sample: its stack of function names, leaf first,
// and its first value (the sample count for a CPU profile).
type profSample struct {
	stack []string
	count int64
}

// parseProfile decodes a gzipped pprof profile.
func parseProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct{ locs, vals []uint64 }
	var (
		samples []rawSample
		strs    []string
		locFns  = map[uint64][]uint64{} // location ID -> function IDs, leaf first
		fnName  = map[uint64]uint64{}   // function ID -> string index
	)
	err = eachField(raw, func(num int, _ uint64, data []byte) error {
		switch num {
		case 2: // sample
			var s rawSample
			err := eachField(data, func(num int, v uint64, d []byte) error {
				var err error
				switch num {
				case 1:
					s.locs, err = appendUints(s.locs, v, d)
				case 2:
					s.vals, err = appendUints(s.vals, v, d)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(data, func(num int, v uint64, d []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(d, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := eachField(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		if len(s.vals) == 0 {
			return nil, fmt.Errorf("profile: %w: sample without values", errProto)
		}
		ps := profSample{count: int64(s.vals[0])}
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				idx := fnName[fn]
				if idx >= uint64(len(strs)) {
					return nil, fmt.Errorf("profile: %w: string index out of range", errProto)
				}
				ps.stack = append(ps.stack, strs[idx])
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// gcFrames mark a stack as garbage-collector work: the collector's
// background workers, the mark assists and write-barrier flushes
// charged to running goroutines, and the cycle's start and end.
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.wbBufFlush",
	"runtime.bgsweep", "runtime.bgscavenge", "runtime.gcStart",
	"runtime.gcMarkDone", "runtime.gcMarkTermination", "runtime.GC",
}

const repoPrefix = "gpuwalk/internal/"

// profileGroup names the group one CPU sample is charged to. Collector
// work is "gc" and allocation outside it is "malloc". Otherwise the
// sample goes to the innermost frame that belongs to one of the
// simulator's packages, so runtime and library helpers (memmove, map
// access, sort) count toward the package that called them; a stack
// with no such frame is "other".
func profileGroup(stack []string) string {
	for _, fn := range stack {
		if contains(gcFrames, fn) {
			return "gc"
		}
	}
	for _, fn := range stack {
		if fn == "runtime.mallocgc" {
			return "malloc"
		}
	}
	for _, fn := range stack {
		rest, ok := strings.CutPrefix(fn, repoPrefix)
		if !ok {
			continue
		}
		pkg, _, _ := strings.Cut(rest, ".")
		if contains(simPkgs, pkg) {
			return pkg
		}
	}
	return "other"
}

// groupShares splits a profile's samples into profileGroup shares that
// sum to 1 (all zero for an empty profile).
func groupShares(samples []profSample) map[string]float64 {
	counts := map[string]float64{}
	total := 0.0
	for _, s := range samples {
		counts[profileGroup(s.stack)] += float64(s.count)
		total += float64(s.count)
	}
	shares := map[string]float64{}
	for _, p := range profilePkgs {
		shares[p] = ratio(counts[p], total)
	}
	return shares
}
