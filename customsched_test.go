package gpuwalk_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"gpuwalk"
)

// oldestFirst is a slice policy that services the lowest Seq, which is
// FCFS written against the public Scheduler interface.
type oldestFirst struct{}

func (oldestFirst) Name() string                                   { return "oldest-first" }
func (oldestFirst) OnArrival(*gpuwalk.Request, []*gpuwalk.Request) {}

func (oldestFirst) Select(pending []*gpuwalk.Request) int {
	best := 0
	for i, r := range pending {
		if r.Seq < pending[best].Seq {
			best = i
		}
	}
	return best
}

// walkSchedule runs cfg with a tracer attached and returns its walk
// schedule, one "walker:start:end:instr:vpn" line per completed walk
// read from the walker tracks, plus the run's Result.
func walkSchedule(t *testing.T, cfg gpuwalk.Config, tr *gpuwalk.Trace) ([]string, gpuwalk.Result) {
	t.Helper()
	tracer := gpuwalk.NewTracer()
	cfg.Obs.Tracer = tracer
	res, err := gpuwalk.RunTrace(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tracer.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name, Cat string
			TS, Dur   uint64
			TID       int
			Args      struct{ VPN, Instr uint64 }
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var walks []string
	for _, ev := range doc.TraceEvents {
		if ev.Cat == "walk" && ev.Name == "walk" {
			walks = append(walks, fmt.Sprintf("%d:%d:%d:%d:%d", ev.TID, ev.TS, ev.TS+ev.Dur, ev.Args.Instr, ev.Args.VPN))
		}
	}
	return walks, res
}

// TestCustomSchedulerMatchesFCFS runs a custom slice policy through
// Config.CustomScheduler and requires the same walk schedule and the
// same Result, apart from the scheduler's name, as the built-in FCFS
// it re-implements.
func TestCustomSchedulerMatchesFCFS(t *testing.T) {
	cfg := microConfig()
	cfg.IOMMU.BufferEntries = 16
	cfg.IOMMU.Walkers = 2
	tr, err := gpuwalk.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Scheduler = gpuwalk.FCFS
	fcfsWalks, fcfsRes := walkSchedule(t, cfg, tr)
	cfg.Scheduler = ""
	cfg.CustomScheduler = oldestFirst{}
	customWalks, customRes := walkSchedule(t, cfg, tr)

	if customRes.Scheduler != "oldest-first" {
		t.Errorf("Result.Scheduler = %q, want the custom policy's name", customRes.Scheduler)
	}
	if len(fcfsWalks) == 0 {
		t.Fatal("no walks traced")
	}
	if len(customWalks) != len(fcfsWalks) {
		t.Fatalf("custom policy ran %d walks, fcfs %d", len(customWalks), len(fcfsWalks))
	}
	for i := range fcfsWalks {
		if customWalks[i] != fcfsWalks[i] {
			t.Fatalf("walk %d: custom %s, fcfs %s", i, customWalks[i], fcfsWalks[i])
		}
	}
	fcfsRes.Scheduler, customRes.Scheduler = "", ""
	a, err := json.Marshal(fcfsRes)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(customRes)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("Result JSON differs from fcfs:\ncustom %s\nfcfs   %s", b, a)
	}
}
