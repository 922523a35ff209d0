package dram

import (
	"testing"
	"testing/quick"

	"gpuwalk/internal/sim"
)

// testConfig is a small, easily-reasoned configuration.
func testConfig() Config {
	return Config{
		Channels:     2,
		RanksPerChan: 1,
		BanksPerRank: 4,
		RowBytes:     1024,
		LineBytes:    64,
		TRCD:         10,
		TCAS:         10,
		TRP:          10,
		TBurst:       4,
		TCtrl:        0,
		SchedWindow:  16,
	}
}

func TestValidate(t *testing.T) {
	if err := testConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Channels = 0 },
		func(c *Config) { c.RanksPerChan = 0 },
		func(c *Config) { c.BanksPerRank = -1 },
		func(c *Config) { c.RowBytes = 100 }, // not multiple of line
		func(c *Config) { c.LineBytes = 48 }, // not power of two
		func(c *Config) { c.TBurst = 0 },
	}
	for i, mutate := range bad {
		c := testConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d passed validation", i)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("DefaultConfig invalid: %v", err)
	}
}

func TestDecodeInterleave(t *testing.T) {
	m := New(sim.NewEngine(), testConfig())
	// Consecutive lines alternate channels.
	ch0, _, _ := m.decode(0)
	ch1, _, _ := m.decode(64)
	ch2, _, _ := m.decode(128)
	if ch0 == ch1 {
		t.Error("adjacent lines mapped to the same channel")
	}
	if ch0 != ch2 {
		t.Error("channel interleave is not modulo the line")
	}
	// Same line offset -> same mapping.
	chA, bkA, rowA := m.decode(4096)
	chB, bkB, rowB := m.decode(4096 + 63)
	if chA != chB || bkA != bkB || rowA != rowB {
		t.Error("addresses within one line decoded differently")
	}
}

func TestRowHitFasterThanConflict(t *testing.T) {
	run := func(second uint64) sim.Cycle {
		eng := sim.NewEngine()
		m := New(eng, testConfig())
		var done sim.Cycle
		m.Access(0, false, func() {
			m.Access(second, false, func() { done = eng.Now() })
		})
		eng.Run()
		return done
	}
	// Same row (64 bytes away but same channel? use channel-stride 128).
	hit := run(128) // same channel 0, same bank? 128: block 2 -> ch 0, bank 1... choose same row carefully below.
	_ = hit

	// Construct same-bank addresses explicitly: channel stride = 2 lines,
	// bank stride = channels*lines. With 2 channels and 4 banks:
	// addr = line*2*4*... simpler: same address twice is a row hit.
	eng := sim.NewEngine()
	m := New(eng, testConfig())
	var hitDone, confDone sim.Cycle
	m.Access(0, false, func() {
		m.Access(0, false, func() { hitDone = eng.Now() })
	})
	eng.Run()

	eng2 := sim.NewEngine()
	m2 := New(eng2, testConfig())
	// Same bank, different row: row size 1024, 4 banks, 2 channels ->
	// same (channel,bank) repeats every 2*4*16 lines = 8192 bytes per
	// row's worth... walk addresses until decode matches bank 0 ch 0
	// with a different row.
	var conflictAddr uint64
	ch0, bk0, row0 := m2.decode(0)
	for a := uint64(64); ; a += 64 {
		ch, bk, row := m2.decode(a)
		if ch == ch0 && bk == bk0 && row != row0 {
			conflictAddr = a
			break
		}
	}
	m2.Access(0, false, func() {
		m2.Access(conflictAddr, false, func() { confDone = eng2.Now() })
	})
	eng2.Run()

	if hitDone >= confDone {
		t.Errorf("row hit (%d) not faster than row conflict (%d)", hitDone, confDone)
	}
	st := m2.Stats()
	if st.RowConflicts != 1 {
		t.Errorf("RowConflicts = %d, want 1", st.RowConflicts)
	}
}

func TestPriorityBeatsDataTraffic(t *testing.T) {
	eng := sim.NewEngine()
	cfg := testConfig()
	// Priority reordering happens within the scheduling window; make it
	// cover the whole backlog for this test.
	cfg.SchedWindow = 64
	m := New(eng, cfg)
	// Flood one channel with data reads, then issue one priority read;
	// the priority read must complete before most of the data reads.
	var prioDone sim.Cycle
	dataDone := make([]sim.Cycle, 0, 32)
	// All to channel 0: channel = block % 2, so use even blocks.
	for i := 0; i < 32; i++ {
		addr := uint64(i) * 128
		m.Access(addr, false, func() { dataDone = append(dataDone, eng.Now()) })
	}
	m.AccessPrio(64*2*100, func() { prioDone = eng.Now() })
	eng.Run()
	later := 0
	for _, d := range dataDone {
		if d > prioDone {
			later++
		}
	}
	if later < 16 {
		t.Errorf("priority read finished after most data reads (only %d later)", later)
	}
	if m.Stats().PrioReads != 1 {
		t.Errorf("PrioReads = %d, want 1", m.Stats().PrioReads)
	}
}

func TestAllAccessesComplete(t *testing.T) {
	eng := sim.NewEngine()
	m := New(eng, testConfig())
	const n = 500
	completed := 0
	for i := 0; i < n; i++ {
		m.Access(uint64(i)*64*7, i%5 == 0, func() { completed++ })
	}
	eng.Run()
	if completed != n {
		t.Fatalf("completed %d of %d accesses", completed, n)
	}
	st := m.Stats()
	if st.Reads+st.Writes != n {
		t.Errorf("stats count %d reads + %d writes, want %d total", st.Reads, st.Writes, n)
	}
	if m.Pending() != 0 {
		t.Errorf("Pending = %d after drain", m.Pending())
	}
}

func TestBusSerialization(t *testing.T) {
	eng := sim.NewEngine()
	cfg := testConfig()
	m := New(eng, cfg)
	// Two accesses to different banks of the same channel cannot finish
	// at the same cycle: the data bus separates their bursts.
	var t1, t2 sim.Cycle
	m.Access(0, false, func() { t1 = eng.Now() })   // ch0 bank0
	m.Access(128, false, func() { t2 = eng.Now() }) // ch0 bank1
	eng.Run()
	if t1 == t2 {
		t.Errorf("bank-parallel accesses completed simultaneously at %d", t1)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []sim.Cycle {
		eng := sim.NewEngine()
		m := New(eng, testConfig())
		var times []sim.Cycle
		for i := 0; i < 100; i++ {
			m.Access(uint64(i*i)*64, false, func() { times = append(times, eng.Now()) })
		}
		eng.Run()
		return times
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("completion %d differs between runs: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestQuickDecodeRoundtrip(t *testing.T) {
	m := New(sim.NewEngine(), DefaultConfig())
	f := func(addr uint64) bool {
		addr %= 1 << 40
		ch, bk, _ := m.decode(addr)
		cfg := m.cfg
		return ch >= 0 && ch < cfg.Channels &&
			bk >= 0 && bk < cfg.RanksPerChan*cfg.BanksPerRank
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQueueLatencyRecorded(t *testing.T) {
	eng := sim.NewEngine()
	m := New(eng, testConfig())
	for i := 0; i < 50; i++ {
		m.Access(uint64(i)*128, false, nil)
	}
	eng.Run()
	st := m.Stats()
	if st.QueueLat.N() != 50 {
		t.Fatalf("QueueLat samples = %d", st.QueueLat.N())
	}
	if st.ServiceLat.Value() <= st.QueueLat.Value() {
		t.Error("service latency should exceed queue latency")
	}
	if st.MaxQueue < 10 {
		t.Errorf("MaxQueue = %d, expected backlog", st.MaxQueue)
	}
}
