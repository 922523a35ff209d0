package main

import (
	"flag"
	"path/filepath"
	"reflect"
	"testing"

	"gpuwalk"
)

// parseConfig parses args the way main does and returns the effective
// config.
func parseConfig(t *testing.T, args ...string) gpuwalk.Config {
	t.Helper()
	fs := flag.NewFlagSet("gpuwalksim", flag.ContinueOnError)
	load := configFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	cfg, err := load()
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestConfigFileKeepsUnsetFlags: a config loaded with -config keeps
// every value no command-line flag names, so a dumped config reloads
// unchanged and one flag changes one field.
func TestConfigFileKeepsUnsetFlags(t *testing.T) {
	want := parseConfig(t, "-workload", "XSB", "-scale", "0.02", "-walkers", "16", "-buffer", "512", "-l2tlb", "1024")
	path := filepath.Join(t.TempDir(), "cfg.json")
	if err := gpuwalk.SaveConfig(path, want); err != nil {
		t.Fatal(err)
	}

	if got := parseConfig(t, "-config", path); !reflect.DeepEqual(got, want) {
		t.Errorf("-config alone:\n got %+v\nwant %+v", got, want)
	}

	want.IOMMU.Walkers = 4
	if got := parseConfig(t, "-config", path, "-walkers", "4"); !reflect.DeepEqual(got, want) {
		t.Errorf("-config with -walkers 4:\n got %+v\nwant %+v", got, want)
	}
}

// TestFlagsWithoutConfigFile: without -config every flag applies,
// defaults included, on top of DefaultConfig.
func TestFlagsWithoutConfigFile(t *testing.T) {
	want := gpuwalk.DefaultConfig()
	want.Workload = "MVT"
	want.Scheduler = "fcfs"
	want.Gen.Scale = 0.125
	want.Gen.WavefrontsPerCU, want.Gen.InstrsPerWavefront = 0, 0
	want.Gen.Seed, want.Seed, want.FaultInject.Seed = 7, 7, 7
	want.IOMMU.Walkers = 8
	want.IOMMU.BufferEntries = 256
	want.GPU.L2TLBEntries = 512
	want.GPU.PageBits = 12
	if got := parseConfig(t, "-seed", "7"); !reflect.DeepEqual(got, want) {
		t.Errorf("flags alone:\n got %+v\nwant %+v", got, want)
	}
}
