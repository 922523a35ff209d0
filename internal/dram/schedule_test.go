package dram

import (
	"fmt"
	"math/rand"
	"testing"

	"gpuwalk/internal/sim"
)

// This file holds the property test and fuzz target for a channel's
// cached start cycle. tick skips pick and the window rescan whenever
// startAt lies in the future, which is exact only if every nonzero
// startAt equals what a rescan of the current window would compute.
// runSchedule checks that after every engine step, on access streams
// that arrive over time (from scheduled events and from completion
// callbacks, with small windows that requests slide into after each
// issue), which is where a missed reset or a skipped rescan would show.

// schedWindows are the SchedWindow values a stream runs under: the
// whole queue, and windows small enough that queued requests enter
// them only as others issue.
var schedWindows = [...]int{0, 1, 3, 16}

// maxSteps bounds one stream's engine steps, so that a channel
// re-arming its tick on the same cycle forever fails instead of hanging.
const maxSteps = 1 << 20

// scheduledAccess is one access of a stream. A root access is issued by
// an event scheduled at cycle at. A child access is issued by the
// completion callback of access parent (an earlier one): inside the
// callback when delay is 0, otherwise delay cycles later.
type scheduledAccess struct {
	addr   uint64
	kind   byte // 0 read, 1 write, 2 priority read
	parent int  // -1 for a root
	at     sim.Cycle
	delay  uint64
}

// decodeSchedule turns fuzz bytes into a window size and an access
// stream: the first byte picks the window, then every three bytes are
// one access. The address stride of 5 lines walks both channels and
// all four banks of testConfig over ten rows, so the stream mixes row
// hits, misses and conflicts.
func decodeSchedule(data []byte) (window int, accs []scheduledAccess) {
	if len(data) == 0 {
		return 0, nil
	}
	window = schedWindows[int(data[0])%len(schedWindows)]
	for data = data[1:]; len(data) >= 3 && len(accs) < 128; data = data[3:] {
		b0, b1, b2 := data[0], data[1], data[2]
		a := scheduledAccess{addr: uint64(b1) * 5 * 64, kind: b0 % 3, parent: -1}
		if b0&0x80 != 0 && len(accs) > 0 {
			a.parent = int(b2) % len(accs)
			a.delay = uint64(b0>>3) & 0x0f
		} else {
			a.at = sim.Cycle(b2)
		}
		accs = append(accs, a)
	}
	return window, accs
}

// freshStart rescans channel c's window the way tick does: the earliest
// cycle at which any request in it could start.
func freshStart(c *channel, window int) sim.Cycle {
	n := len(c.queue)
	if window > 0 && window < n {
		n = window
	}
	start := sim.Cycle(^uint64(0))
	for _, r := range c.queue[:n] {
		t := c.banks[r.bank].readyAt
		if c.busFreeAt > t {
			t = c.busFreeAt
		}
		if t < start {
			start = t
		}
	}
	return start
}

// runSchedule drives one stream through a Memory step by step. After
// every step each channel's nonzero startAt must equal a fresh rescan,
// and one that the step changed must lie after Now (the rescan follows
// a failed pick, so nothing in the window can start now). At the end
// every access must have completed exactly once.
func runSchedule(t *testing.T, window int, accs []scheduledAccess) {
	t.Helper()
	eng := sim.NewEngine()
	cfg := testConfig()
	cfg.SchedWindow = window
	m := New(eng, cfg)

	completed := make([]int, len(accs))
	children := make([][]int, len(accs))
	var issue func(i int)
	issue = func(i int) {
		a := accs[i]
		done := func() {
			completed[i]++
			for _, k := range children[i] {
				if d := accs[k].delay; d > 0 {
					eng.After(d, func() { issue(k) })
				} else {
					issue(k)
				}
			}
		}
		switch a.kind {
		case 0:
			m.Access(a.addr, false, done)
		case 1:
			m.Access(a.addr, true, done)
		default:
			m.AccessPrio(a.addr, done)
		}
	}
	for i, a := range accs {
		if a.parent >= 0 {
			children[a.parent] = append(children[a.parent], i)
			continue
		}
		eng.At(a.at, func() { issue(i) })
	}

	prev := make([]sim.Cycle, len(m.channels))
	for steps := 0; eng.Step(); steps++ {
		if steps == maxSteps {
			t.Fatalf("window %d: still running after %d steps at cycle %d", window, steps, eng.Now())
		}
		for i := range m.channels {
			c := &m.channels[i]
			if c.startAt != 0 {
				if want := freshStart(c, window); c.startAt != want {
					t.Fatalf("window %d, cycle %d, channel %d: startAt %d, rescan gives %d",
						window, eng.Now(), i, c.startAt, want)
				}
				if c.startAt != prev[i] && c.startAt <= eng.Now() {
					t.Fatalf("window %d, cycle %d, channel %d: rescan stored startAt %d, not after now",
						window, eng.Now(), i, c.startAt)
				}
			}
			prev[i] = c.startAt
		}
	}
	for i, n := range completed {
		if n != 1 {
			t.Fatalf("window %d: access %d (%+v) completed %d times", window, i, accs[i], n)
		}
	}
	if p := m.Pending(); p != 0 {
		t.Fatalf("window %d: %d requests still queued", window, p)
	}
}

func TestChannelStartAtProperty(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			data := make([]byte, 1+3*(1+rng.Intn(128)))
			rng.Read(data)
			for w := range schedWindows {
				data[0] = byte(w)
				window, accs := decodeSchedule(data)
				runSchedule(t, window, accs)
			}
		})
	}
}

func FuzzChannelSchedule(f *testing.F) {
	// A window of one: three roots on cycles 0 and 1 (a read, a write
	// and a priority read), and children issued inside completion
	// callbacks and after delays.
	f.Add([]byte{1, 0, 3, 0, 1, 9, 0, 2, 17, 1, 0x80, 40, 0, 0x99, 41, 1, 0x82, 4, 7, 0x8a, 200, 2})
	// The whole queue as the window: a row miss and a row conflict on
	// one bank at cycle 0, so that the bank gates the rescan, then a read
	// of an idle bank at cycle 10, which must start before that rescan's
	// cycle, and two children.
	f.Add([]byte{0, 0, 0, 0, 0, 32, 0, 0, 2, 10, 0x81, 0, 0, 0x90, 16, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		window, accs := decodeSchedule(data)
		runSchedule(t, window, accs)
	})
}
