package obs

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestFamilySetExposition(t *testing.T) {
	fs := NewFamilySet()
	jobs := fs.NewCounter("jobs_finished_total", "Jobs by terminal state.", "state")
	jobs.With("done").Add(3)
	jobs.With("failed").Inc()
	depth := fs.NewGauge("queue_depth", "Queued jobs.")
	depth.With().Set(2)
	fs.GaugeFunc("uptime_seconds", "Seconds since start.", func() float64 { return 1.5 })
	h := fs.NewHistogram("job_seconds", "Job wall time.", []float64{0.1, 1}, "state")
	h.With("done").Observe(0.05)
	h.With("done").Observe(0.5)
	h.With("done").Observe(5)

	var buf bytes.Buffer
	if err := fs.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# HELP job_seconds Job wall time.
# TYPE job_seconds histogram
job_seconds_bucket{state="done",le="0.1"} 1
job_seconds_bucket{state="done",le="1"} 2
job_seconds_bucket{state="done",le="+Inf"} 3
job_seconds_sum{state="done"} 5.55
job_seconds_count{state="done"} 3
# HELP jobs_finished_total Jobs by terminal state.
# TYPE jobs_finished_total counter
jobs_finished_total{state="done"} 3
jobs_finished_total{state="failed"} 1
# HELP queue_depth Queued jobs.
# TYPE queue_depth gauge
queue_depth 2
# HELP uptime_seconds Seconds since start.
# TYPE uptime_seconds gauge
uptime_seconds 1.5
`
	if buf.String() != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", buf.String(), want)
	}

	// Two scrapes of unchanged state are byte-identical.
	var buf2 bytes.Buffer
	if err := fs.WriteText(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("two scrapes of the same state differ")
	}
}

func TestFamilySetParseRoundTrip(t *testing.T) {
	fs := NewFamilySet()
	c := fs.NewCounter("walks_total", "Walks.", "sched", "cu")
	c.With("sjf", "0").Add(41)
	c.With("fcfs", `we"ird\label`+"\n").Inc()
	c.With("GET /v1/jobs/{id}", "1").Inc() // braces inside a label value
	g := fs.NewGauge("pending", "Pending requests.")
	g.With().Set(-3.25)
	h := fs.NewHistogram("lat_seconds", "Latency.", DefBuckets)
	h.With().Observe(0.004)
	h.With().Observe(300)

	var buf bytes.Buffer
	if err := fs.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParsePromText(&buf)
	if err != nil {
		t.Fatalf("parse of our own exposition failed: %v\n%s", err, buf.String())
	}
	if parsed.Types["walks_total"] != "counter" || parsed.Types["lat_seconds"] != "histogram" {
		t.Fatalf("types = %v", parsed.Types)
	}
	for key, want := range map[string]float64{
		`walks_total{cu="0",sched="sjf"}`:                 41,
		`walks_total{cu="we\"ird\\label\n",sched="fcfs"}`: 1,
		`walks_total{cu="1",sched="GET /v1/jobs/{id}"}`:   1,
		`pending`:                        -3.25,
		`lat_seconds_count`:              2,
		`lat_seconds_sum`:                300.004,
		`lat_seconds_bucket{le="0.005"}`: 1,
		`lat_seconds_bucket{le="+Inf"}`:  2,
	} {
		got, ok := parsed.Sample(key)
		if !ok {
			t.Fatalf("sample %s missing from parse\n%s", key, buf.String())
		}
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("sample %s = %v, want %v", key, got, want)
		}
	}
}

func TestParsePromTextRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"no_type_declared 1\n",
		"# TYPE x counter\nx 1 2 3\n",
		"# TYPE x counter\nx{le=\"unterminated} 1\n",
		"# TYPE x nonsense\nx 1\n",
		"# TYPE x counter\nx{9bad=\"v\"} 1\n",
		"# TYPE x counter\nx notanumber\n",
		"# TYPE x counter\nx 1\n# TYPE x counter\nx{a=\"b\"} 2\n",
		"# HELP x One.\n# TYPE x counter\n# HELP x One.\nx 1\n",
	} {
		if _, err := ParsePromText(strings.NewReader(bad)); err == nil {
			t.Errorf("ParsePromText accepted %q", bad)
		}
	}
}

func TestFamilyValidationPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	fs := NewFamilySet()
	fs.NewCounter("ok_total", "fine")
	mustPanic("duplicate family", func() { fs.NewCounter("ok_total", "again") })
	mustPanic("bad metric name", func() { fs.NewCounter("0bad", "x") })
	mustPanic("bad label name", func() { fs.NewCounter("c_total", "x", "9bad") })
	mustPanic("reserved label name", func() { fs.NewGauge("g", "x", "__reserved") })
	mustPanic("label arity", func() { fs.NewCounter("d_total", "x", "a").With() })
	mustPanic("empty buckets", func() { fs.NewHistogram("h", "x", nil) })
	mustPanic("unsorted buckets", func() { fs.NewHistogram("h2", "x", []float64{1, 1}) })
	mustPanic("Set on counter", func() { fs.NewCounter("e_total", "x").With().Set(1) })
	mustPanic("Add on gauge", func() { fs.NewGauge("f", "x").With().Add(1) })
	mustPanic("Observe on gauge", func() { fs.NewGauge("f2", "x").With().Observe(1) })
	fs.GaugeFunc("fn_gauge", "x", func() float64 { return 0 })
	mustPanic("With on func family", func() {
		fs.mu.Lock()
		f := fs.families["fn_gauge"]
		fs.mu.Unlock()
		f.With()
	})
}

func TestGaugeAddAndHistogramBuckets(t *testing.T) {
	fs := NewFamilySet()
	g := fs.NewGauge("g", "x").With()
	g.Set(10)
	g.AddGauge(-2.5)
	if got := g.Gauge(); got != 7.5 {
		t.Fatalf("gauge = %v", got)
	}
	h := fs.NewHistogram("h", "x", []float64{1, 2, 4}).With()
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	var buf bytes.Buffer
	if err := fs.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParsePromText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Bounds are inclusive (le): 0.5 and 1 land in le="1".
	for key, want := range map[string]float64{
		`h_bucket{le="1"}`:    2,
		`h_bucket{le="2"}`:    3,
		`h_bucket{le="4"}`:    4,
		`h_bucket{le="+Inf"}`: 5,
		`h_count`:             5,
	} {
		if got, _ := parsed.Sample(key); got != want {
			t.Fatalf("%s = %v, want %v\n%s", key, got, want, buf.String())
		}
	}
}

// TestFamilySetConcurrentScrape hammers every mutation path from many
// goroutines while scraping concurrently. Run under -race (CI does),
// this is the proof that exposition never tears: the final scrape must
// also add up exactly.
func TestFamilySetConcurrentScrape(t *testing.T) {
	fs := NewFamilySet()
	ctr := fs.NewCounter("ops_total", "x", "kind")
	gauge := fs.NewGauge("level", "x")
	hist := fs.NewHistogram("dur", "x", []float64{1, 10})

	const goroutines = 8
	const perG = 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	scraperDone := make(chan struct{})
	go func() { // concurrent scraper
		defer close(scraperDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			var buf bytes.Buffer
			if err := fs.WriteText(&buf); err != nil {
				t.Error(err)
				return
			}
			if _, err := ParsePromText(&buf); err != nil {
				t.Errorf("mid-flight scrape unparseable: %v", err)
				return
			}
		}
	}()
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			kind := []string{"a", "b", "c"}[i%3]
			for n := 0; n < perG; n++ {
				ctr.With(kind).Inc()
				gauge.With().AddGauge(1)
				hist.With().Observe(float64(n % 20))
			}
		}(i)
	}
	wg.Wait()
	close(stop)
	<-scraperDone

	var buf bytes.Buffer
	if err := fs.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParsePromText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, kind := range []string{"a", "b", "c"} {
		v, _ := parsed.Sample(`ops_total{kind="` + kind + `"}`)
		total += v
	}
	if total != goroutines*perG {
		t.Fatalf("ops_total sums to %v, want %d", total, goroutines*perG)
	}
	if v, _ := parsed.Sample("level"); v != goroutines*perG {
		t.Fatalf("level = %v, want %d", v, goroutines*perG)
	}
	if v, _ := parsed.Sample("dur_count"); v != goroutines*perG {
		t.Fatalf("dur_count = %v, want %d", v, goroutines*perG)
	}
}
