package obs

// Go runtime self-metrics for a FamilySet: when a node under load
// saturates, the first question is whether it is the workload or the
// process (goroutine pileup, heap growth, GC pressure, fd exhaustion).
// These families answer that from the same /metrics scrape.
// ReadMemStats stops the world briefly, so samples are cached for a
// second and shared by every callback family.

import (
	"os"
	"runtime"
	"sync"
	"time"
)

// memSampler caches one runtime.MemStats snapshot per second so a
// scrape reading several families triggers one stop-the-world, not
// five.
type memSampler struct {
	mu   sync.Mutex
	at   time.Time
	stat runtime.MemStats
}

func (m *memSampler) sample() runtime.MemStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	if now := time.Now(); m.at.IsZero() || now.Sub(m.at) > time.Second {
		runtime.ReadMemStats(&m.stat)
		m.at = now
	}
	return m.stat
}

// RegisterRuntimeMetrics adds Go runtime self-metrics (goroutines,
// heap, GC pause, open fds) to the set. Call at most once per
// FamilySet; a second call panics on the duplicate family like any
// other re-registration.
func RegisterRuntimeMetrics(s *FamilySet) {
	ms := &memSampler{}
	s.GaugeFunc("go_goroutines",
		"Number of goroutines that currently exist.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	s.GaugeFunc("go_heap_alloc_bytes",
		"Bytes of allocated heap objects.",
		func() float64 { return float64(ms.sample().HeapAlloc) })
	s.GaugeFunc("go_heap_objects",
		"Number of allocated heap objects.",
		func() float64 { return float64(ms.sample().HeapObjects) })
	s.CounterFunc("go_gc_cycles_total",
		"Completed GC cycles.",
		func() float64 { return float64(ms.sample().NumGC) })
	s.CounterFunc("go_gc_pause_seconds_total",
		"Cumulative stop-the-world GC pause time.",
		func() float64 { return float64(ms.sample().PauseTotalNs) / 1e9 })
	if fdDir := openFDDir(); fdDir != "" {
		s.GaugeFunc("process_open_fds",
			"Open file descriptors of this process.",
			func() float64 { return float64(countDirEntries(fdDir)) })
	}
}

// openFDDir returns the per-process fd directory if one exists (Linux
// procfs, or /dev/fd elsewhere), else "".
func openFDDir() string {
	for _, dir := range []string{"/proc/self/fd", "/dev/fd"} {
		if _, err := os.ReadDir(dir); err == nil {
			return dir
		}
	}
	return ""
}

// countDirEntries returns the number of entries in dir (0 on error).
func countDirEntries(dir string) int {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	return len(ents)
}
