package workload_test

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"

	"gpuwalk/internal/traceio"
	"gpuwalk/internal/workload"
)

// mapPages is the census TouchedPages replaced, as a reference: every
// lane's VPN inserted into a map, the keys sorted.
func mapPages(tr *workload.Trace, pageBits uint) []uint64 {
	seen := make(map[uint64]struct{})
	for _, w := range tr.Wavefronts {
		for _, in := range w.Instrs {
			for _, va := range in.Lanes {
				seen[va>>pageBits] = struct{}{}
			}
		}
	}
	pages := make([]uint64, 0, len(seen))
	for vpn := range seen {
		pages = append(pages, vpn)
	}
	slices.Sort(pages)
	return pages
}

// checkPages requires tr's census to equal the map reference.
func checkPages(t *testing.T, name string, tr *workload.Trace, pageBits uint) {
	t.Helper()
	got, want := tr.TouchedPages(pageBits), mapPages(tr, pageBits)
	if !slices.Equal(got, want) {
		i := 0
		for i < min(len(got), len(want)) && got[i] == want[i] {
			i++
		}
		t.Fatalf("%s, page bits %d: %d pages, the map reference %d; they differ from index %d",
			name, pageBits, len(got), len(want), i)
	}
}

// laneTrace packs lane addresses into one wavefront, 64 lanes per
// instruction.
func laneTrace(vas []uint64) *workload.Trace {
	w := workload.WavefrontTrace{}
	for len(vas) > 0 {
		n := min(64, len(vas))
		w.Instrs = append(w.Instrs, workload.MemInstr{Lanes: vas[:n]})
		vas = vas[n:]
	}
	return &workload.Trace{Name: "lanes", Wavefronts: []workload.WavefrontTrace{w}}
}

// TestTouchedPagesMatchesMap holds the bitmap census to the map
// reference on every registered workload at the ledger's sweep and
// service shapes, on a two-app merge whose apps sit 1 TB apart, on a
// trace that went through a traceio round trip, and on traces whose
// pages spread over more 2^18-page chunks than their lanes pay for,
// which the census sorts instead.
func TestTouchedPagesMatchesMap(t *testing.T) {
	shapes := []struct {
		name string
		gen  workload.GenConfig
	}{
		{"sweep", workload.GenConfig{CUs: 8, WavefrontWidth: 64, WavefrontsPerCU: 4, InstrsPerWavefront: 16, Scale: 0.05, Seed: 1}},
		{"svc", workload.GenConfig{CUs: 8, WavefrontWidth: 64, WavefrontsPerCU: 2, InstrsPerWavefront: 6, Scale: 0.02, Seed: 1}},
	}
	pageBits := []uint{12, 21}
	for _, sh := range shapes {
		for _, g := range workload.Registry() {
			tr := g.Generate(sh.gen)
			for _, pb := range pageBits {
				checkPages(t, sh.name+"/"+g.Abbrev, tr, pb)
			}
		}
	}

	xsb, _ := workload.ByName("XSB")
	nw, _ := workload.ByName("NW")
	merged := workload.Merge("XSB+NW", xsb.Generate(shapes[0].gen), nw.Generate(shapes[0].gen))
	var buf bytes.Buffer
	if err := traceio.Save(&buf, merged); err != nil {
		t.Fatal(err)
	}
	loaded, err := traceio.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, pb := range pageBits {
		checkPages(t, "merge", merged, pb)
		checkPages(t, "merge via traceio", loaded, pb)
	}

	// 4,095 lanes pay for one chunk's bitmap and 8,192 for two; pages
	// 1 GB apart each sit in their own chunk at 4 KB pages, met here
	// from the highest chunk down.
	spread := func(lanes, chunks int) *workload.Trace {
		vas := make([]uint64, lanes)
		for i := range vas {
			vas[i] = uint64(chunks-1-i%chunks)<<30 | uint64(i*4096)%(1<<30)
		}
		return laneTrace(vas)
	}
	checkPages(t, "one chunk", spread(4095, 1), 12)
	checkPages(t, "two chunks from 4,095 lanes", spread(4095, 2), 12)
	checkPages(t, "two chunks from 8,192 lanes", spread(8192, 2), 12)
	checkPages(t, "three chunks from 8,192 lanes", spread(8192, 3), 12)
	checkPages(t, "65 chunks from 65 x 4,096 lanes", spread(65*4096, 65), 12)
	checkPages(t, "no lanes", laneTrace(nil), 12)
}

// FuzzTouchedPages checks the census on arbitrary lane addresses, 0
// and addresses near 2^64 among them, at any page size: its pages must
// be sorted, distinct and equal to the map reference. The lanes repeat
// up to 1,024 times, so that traces long enough to pay for several
// chunks' bitmaps take the bitmap path and short ones spread over
// chunks take the sorting one.
func FuzzTouchedPages(f *testing.F) {
	seed := func(vas ...uint64) []byte {
		b := make([]byte, 0, 8*len(vas))
		for _, va := range vas {
			b = binary.LittleEndian.AppendUint64(b, va)
		}
		return b
	}
	f.Add(seed(0), uint8(12), uint16(0))
	f.Add(seed(0, 1<<32, 1<<32+4096, 1<<40), uint8(12), uint16(2047))
	f.Add(seed(^uint64(0), ^uint64(0)-4096, 1<<63, 0), uint8(21), uint16(3))
	f.Add(seed(1<<30, 2<<30, 3<<30, 1<<30|8191), uint8(12), uint16(1023))
	f.Add(seed(^uint64(0)>>1, 1<<62, 12345), uint8(0), uint16(5000))
	f.Fuzz(func(t *testing.T, data []byte, pageBits uint8, reps uint16) {
		vas := make([]uint64, 0, len(data)/8)
		for ; len(data) >= 8; data = data[8:] {
			vas = append(vas, binary.LittleEndian.Uint64(data))
		}
		if len(vas) == 0 {
			return
		}
		n := min(int(reps)%1024+1, 1<<16/len(vas))
		lanes := make([]uint64, 0, n*len(vas))
		for range n {
			lanes = append(lanes, vas...)
		}
		tr := laneTrace(lanes)
		pb := uint(pageBits % 64)
		got := tr.TouchedPages(pb)
		for i := 1; i < len(got); i++ {
			if got[i] <= got[i-1] {
				t.Fatalf("pages %#x then %#x: not sorted and distinct", got[i-1], got[i])
			}
		}
		if want := mapPages(tr, pb); !slices.Equal(got, want) {
			t.Fatalf("page bits %d over %d lanes: got %#x, want %#x", pb, len(lanes), got, want)
		}
	})
}
