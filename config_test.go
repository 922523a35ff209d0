package gpuwalk_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gpuwalk"
)

func TestConfigRoundtrip(t *testing.T) {
	cfg := gpuwalk.DefaultConfig()
	cfg.Workload = "GEV"
	cfg.Scheduler = gpuwalk.SIMTAware
	cfg.IOMMU.Walkers = 16
	cfg.GPU.L2TLBEntries = 1024
	cfg.Gen.Scale = 0.25
	cfg.Seed = 99

	path := filepath.Join(t.TempDir(), "cfg.json")
	if err := gpuwalk.SaveConfig(path, cfg); err != nil {
		t.Fatal(err)
	}
	got, err := gpuwalk.LoadConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Workload != "GEV" || got.Scheduler != gpuwalk.SIMTAware ||
		got.IOMMU.Walkers != 16 || got.GPU.L2TLBEntries != 1024 ||
		got.Gen.Scale != 0.25 || got.Seed != 99 {
		t.Errorf("roundtrip lost fields: %+v", got)
	}
	// The loaded config must actually run.
	got.Gen.WavefrontsPerCU = 2
	got.Gen.InstrsPerWavefront = 4
	got.Gen.Scale = 0.05
	if _, err := gpuwalk.Run(got); err != nil {
		t.Fatal(err)
	}
}

// TestLoadConfigRejectsUnknownFields also covers fields that were
// deleted from Config: a file that still sets one must fail, not run
// without it.
func TestLoadConfigRejectsUnknownFields(t *testing.T) {
	for field, doc := range map[string]string{
		"NotAField":          `{"NotAField": 1}`,
		"WalkerLatencyModel": `{"IOMMU":{"WalkerLatencyModel":true}}`,
		"WalkerFixedLat":     `{"IOMMU":{"WalkerFixedLat":180}}`,
		"PrefetchNext":       `{"IOMMU":{"PrefetchNext":true}}`,
		"MergeSameVPN":       `{"IOMMU":{"MergeSameVPN":true}}`,
		"PageBits":           `{"IOMMU":{"PageBits":21}}`,
		"TLBRepl":            `{"GPU":{"TLBRepl":1}}`,
		"XlateMSHRs":         `{"GPU":{"XlateMSHRs":4}}`,
	} {
		path := filepath.Join(t.TempDir(), "bad.json")
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := gpuwalk.LoadConfig(path); err == nil {
			t.Errorf("%s: unknown field accepted", doc)
		} else if !strings.Contains(err.Error(), field) {
			t.Errorf("%s: error does not name the field: %v", doc, err)
		}
	}
}

func TestLoadConfigMissingFile(t *testing.T) {
	if _, err := gpuwalk.LoadConfig(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Error("missing file accepted")
	}
}
