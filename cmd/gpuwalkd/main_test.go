package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"gpuwalk"
	"gpuwalk/internal/jobd"
	"gpuwalk/internal/obs"
	"gpuwalk/internal/simcache"
)

// syncBuffer is a goroutine-safe bytes.Buffer for capturing the
// server's stdout while it runs.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// tinySpec is a fast-but-real simulation config: a scaled-down MVT
// run that finishes in well under a second.
func tinySpec(t *testing.T, sched gpuwalk.SchedulerKind) json.RawMessage {
	t.Helper()
	cfg := gpuwalk.DefaultConfig()
	cfg.GPU.CUs = 2
	cfg.Scheduler = sched
	cfg.Gen.Scale = 0.02
	cfg.Gen.WavefrontsPerCU = 2
	cfg.Gen.InstrsPerWavefront = 6
	cfg.Seed = 11
	b, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

var listenRE = regexp.MustCompile(`listening on ([^\s]+) `)

// daemon is a real gpuwalkd running in-process: run() in a goroutine,
// listening on an ephemeral port, stopped by SIGTERM to the test
// process.
type daemon struct {
	base           string // http://host:port once announced
	exit           chan int
	stdout, stderr syncBuffer
}

// startDaemon runs gpuwalkd with args plus an ephemeral -addr and
// waits for it to announce its address.
func startDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	d := &daemon{exit: make(chan int, 1)}
	go func() {
		d.exit <- run(append([]string{"-addr", "127.0.0.1:0"}, args...), &d.stdout, &d.stderr)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if m := listenRE.FindStringSubmatch(d.stdout.String()); m != nil {
			d.base = "http://" + m[1]
			return d
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never announced its address\nstdout: %s\nstderr: %s", d.stdout.String(), d.stderr.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop sends SIGTERM and requires a graceful drain and exit 0.
func (d *daemon) stop(t *testing.T) {
	t.Helper()
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-d.exit:
		if code != 0 {
			t.Fatalf("exit code = %d\nstdout: %s\nstderr: %s", code, d.stdout.String(), d.stderr.String())
		}
	case <-time.After(90 * time.Second):
		t.Fatalf("server did not exit after SIGTERM\nstdout: %s", d.stdout.String())
	}
	if !strings.Contains(d.stdout.String(), "draining") {
		t.Fatalf("no drain message in stdout:\n%s", d.stdout.String())
	}
}

// waitTerminal polls a job through c until it reaches a terminal
// state, ctx expires, or the server no longer retains it.
func waitTerminal(ctx context.Context, c *jobd.Client, id string) (jobd.JobView, error) {
	for {
		v, err := c.Job(ctx, id)
		if err != nil || v.State.Terminal() {
			return v, err
		}
		select {
		case <-time.After(10 * time.Millisecond):
		case <-ctx.Done():
			return v, ctx.Err()
		}
	}
}

// TestEndToEnd drives a real gpuwalkd: start the server on an
// ephemeral port, submit a sweep over HTTP, follow its SSE stream,
// resubmit it and require cache hits with byte-identical results,
// then SIGTERM the process and check the graceful drain, exit status
// and cache durability.
func TestEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end server test")
	}
	cacheDir := filepath.Join(t.TempDir(), "cache")
	d := startDaemon(t,
		"-cache", cacheDir,
		"-workers", "2",
		"-timeout", "2m",
		"-drain-timeout", "60s",
		"-log-format", "text",
		// Sample progress every 500 simulated cycles and stream it
		// every 10ms so even this tiny run emits progress events.
		"-progress-cycles", "500",
		"-progress-interval", "10ms",
	)
	base := d.base

	// Submit a two-point sweep (FCFS vs SIMT-aware on the same tiny
	// workload).
	submit := func() jobd.JobView {
		t.Helper()
		body, err := json.Marshal(map[string]any{
			"specs": []json.RawMessage{
				tinySpec(t, gpuwalk.FCFS),
				tinySpec(t, gpuwalk.SIMTAware),
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			msg, _ := io.ReadAll(resp.Body)
			t.Fatalf("submit status = %d: %s", resp.StatusCode, msg)
		}
		if resp.ContentLength <= 0 {
			t.Fatalf("the 202 went out without a Content-Length (%d)", resp.ContentLength)
		}
		var v jobd.JobView
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
		return v
	}
	first := submit()

	// Follow the SSE stream to completion: replay + live events,
	// ending with the terminal event when the stream closes. Live
	// `progress` events interleave with the log events; stripped of
	// them, the sequence must be exactly the job's event log.
	resp, err := http.Get(base + "/v1/jobs/" + first.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	type progressData struct {
		Item      int    `json:"item"`
		Cycles    uint64 `json:"cycles"`
		Done      uint64 `json:"done"`
		Total     uint64 `json:"total"`
		ItemsDone int    `json:"items_done"`
	}
	var events []string
	var progress []progressData
	var curType string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			curType = strings.TrimPrefix(line, "event: ")
			if curType != jobd.EventProgress {
				events = append(events, curType)
			}
		case strings.HasPrefix(line, "data: ") && curType == jobd.EventProgress:
			var pd progressData
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &pd); err != nil {
				t.Fatalf("bad progress payload %q: %v", line, err)
			}
			progress = append(progress, pd)
		}
	}
	resp.Body.Close()
	wantEvents := []string{jobd.EventQueued, jobd.EventStarted, jobd.EventItemDone, jobd.EventItemDone, jobd.EventDone}
	if strings.Join(events, ",") != strings.Join(wantEvents, ",") {
		t.Fatalf("SSE events = %v, want %v", events, wantEvents)
	}
	// A real (uncached) simulation job must stream live progress:
	// at least one event, cycles non-decreasing within an item, the
	// finished-item count non-decreasing across the job.
	if len(progress) == 0 {
		t.Fatal("no progress SSE events from an uncached simulation job")
	}
	for i := 1; i < len(progress); i++ {
		a, b := progress[i-1], progress[i]
		if a.Item == b.Item && b.Cycles < a.Cycles {
			t.Fatalf("progress cycles regressed: %+v -> %+v", a, b)
		}
		if b.ItemsDone < a.ItemsDone {
			t.Fatalf("progress items_done regressed: %+v -> %+v", a, b)
		}
	}
	if last := progress[len(progress)-1]; last.Total == 0 || last.Done != last.Total {
		t.Fatalf("final progress event incomplete: %+v", last)
	}

	fetch := func(id string) jobd.JobView {
		t.Helper()
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var v jobd.JobView
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
		return v
	}
	firstDone := fetch(first.ID)
	if firstDone.State != jobd.StateDone || firstDone.CacheHits != 0 {
		t.Fatalf("first job = %s with %d cache hits (%s), want done with 0",
			firstDone.State, firstDone.CacheHits, firstDone.Error)
	}

	// An identical resubmission is served entirely from the cache at
	// admission: its 202 body is already done, with byte-identical
	// results.
	second := submit()
	if second.State != jobd.StateDone || second.CacheHits != 2 {
		t.Fatalf("second job's 202 = %s with %d cache hits (%s), want done with 2",
			second.State, second.CacheHits, second.Error)
	}
	if got := fetch(second.ID); got.State != jobd.StateDone || got.CacheHits != 2 {
		t.Fatalf("second job read back %s with %d cache hits", got.State, got.CacheHits)
	}
	// A hit goes out as the object the cache stored, byte for byte, and
	// so does the fresh result it was stored from.
	for i, item := range second.Items {
		cfg := gpuwalk.DefaultConfig()
		if err := json.Unmarshal(item.Spec, &cfg); err != nil {
			t.Fatal(err)
		}
		key, err := gpuwalk.ConfigHash(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// The object's name carries the digest of the bytes served.
		name := key + "." + simcache.PayloadDigest(item.Result) + ".json"
		stored, err := os.ReadFile(filepath.Join(cacheDir, "objects", key[:2], name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(item.Result, stored) {
			t.Fatalf("item %d: served hit is not the stored object\nserved: %.200s\nstored: %.200s", i, item.Result, stored)
		}
		if !bytes.Equal(firstDone.Items[i].Result, stored) {
			t.Fatalf("item %d: fresh result differs from the stored object", i)
		}
	}

	// /metrics serves Prometheus text reflecting the work done,
	// including the wired-in cache and build_info families.
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.ContentTypeProm {
		t.Fatalf("metrics Content-Type = %q, want %q", ct, obs.ContentTypeProm)
	}
	prom, err := obs.ParsePromText(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("metrics output is not valid Prometheus text: %v", err)
	}
	for key, want := range map[string]float64{
		`jobd_jobs_submitted_total`:              2,
		`jobd_jobs_finished_total{state="done"}`: 2,
		`jobd_item_cache_total{result="hit"}`:    2,
		`jobd_item_cache_total{result="miss"}`:   2,
		`gpuwalkd_cache_hits_total`:              2,
		`gpuwalkd_cache_misses_total`:            2,
		`gpuwalkd_cache_entries`:                 2,
	} {
		got, ok := prom.Sample(key)
		if !ok || got != want {
			t.Fatalf("metric %s = %v (present=%v), want %v", key, got, ok, want)
		}
	}
	buildKey := `gpuwalkd_build_info{go_version=` + strconv.Quote(runtime.Version()) +
		`,model_version=` + strconv.Quote(gpuwalk.SimVersion) + `}`
	if v, ok := prom.Sample(buildKey); !ok || v != 1 {
		t.Fatalf("metric %s = %v (present=%v), want 1", buildKey, v, ok)
	}

	// SIGTERM: the server drains gracefully and exits 0.
	d.stop(t)

	// The cache survives the shutdown: a fresh handle serves the same
	// config as a hit without re-simulating.
	cache, err := gpuwalk.OpenResultCache(cacheDir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	var cfg gpuwalk.Config
	if err := json.Unmarshal(tinySpec(t, gpuwalk.FCFS), &cfg); err != nil {
		t.Fatal(err)
	}
	res, hit, err := gpuwalk.RunCached(context.Background(), cache, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("cache did not survive the server shutdown")
	}
	got, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, firstDone.Items[0].Result) {
		t.Fatal("reopened cache returned a different result than the server did")
	}
}

// TestStallFailsOnce: a spec that livelocks the simulator fails its
// job after one run. Re-running would reproduce the same stall (see
// the root package's TestStallDeterministic), so the job error is the
// plain item count, exactly one item failed, and the event log has no
// retry in it.
func TestStallFailsOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end server test")
	}
	d := startDaemon(t, "-cache", filepath.Join(t.TempDir(), "cache"))
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	c := &jobd.Client{BaseURL: d.base}
	v, err := c.Submit(ctx, jobd.SubmitRequest{Spec: json.RawMessage(`{"Workload":"MVT",` +
		`"Gen":{"Scale":0.02,"WavefrontsPerCU":2,"InstrsPerWavefront":6},` +
		`"FaultInject":{"WalkerKillPeriod":1},"WatchdogInterval":20000}`)})
	if err != nil {
		t.Fatal(err)
	}
	v, err = waitTerminal(ctx, c, v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if v.State != jobd.StateFailed || v.Error != "1 of 1 items failed" {
		t.Fatalf("stalled job = %s %q, want failed %q", v.State, v.Error, "1 of 1 items failed")
	}
	if !strings.HasPrefix(v.Items[0].Error, "sim: no progress for 20000 cycles") {
		t.Fatalf("item error does not name the stall: %.200q", v.Items[0].Error)
	}

	resp, err := http.Get(d.base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, err := obs.ParsePromText(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := prom.Sample(`jobd_items_total{outcome="error"}`); n != 1 {
		t.Fatalf(`jobd_items_total{outcome="error"} = %v, want 1 (one run)`, n)
	}

	// The job is terminal, so its event stream replays the log and ends.
	resp, err = http.Get(d.base + "/v1/jobs/" + v.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	var events []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if typ, ok := strings.CutPrefix(sc.Text(), "event: "); ok && typ != jobd.EventProgress {
			events = append(events, typ)
		}
	}
	resp.Body.Close()
	want := []string{jobd.EventQueued, jobd.EventStarted, jobd.EventItemDone, jobd.EventFailed}
	if strings.Join(events, ",") != strings.Join(want, ",") {
		t.Fatalf("events = %v, want %v", events, want)
	}
	d.stop(t)
}

// TestRunnerRejectsBadSpec: unknown fields and broken JSON fail the
// item instead of silently simulating a default config.
func TestRunnerRejectsBadSpec(t *testing.T) {
	cache, err := gpuwalk.OpenResultCache(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	r := newRunner(cache, 500)
	lookup := newLookup(cache, newSpecKeys())
	for _, spec := range []string{`{"Workloud":"MVT"}`, `{"GPU":{"CUs":"two"}}`, `not json`} {
		if _, ok := lookup(context.Background(), json.RawMessage(spec)); ok {
			t.Errorf("admission probe hit on bad spec %s", spec)
		}
		if _, _, err := r(context.Background(), json.RawMessage(spec)); err == nil || !strings.HasPrefix(err.Error(), "bad spec") {
			t.Errorf("runner on bad spec %s: err = %v, want bad spec", spec, err)
		}
	}
}

// TestAdmissionProbeCountsOnce: the admission probe and the runner
// share the cache counters without counting a lookup twice. A
// single-item job that misses counts one miss, the runner's, and its
// resubmission, answered at admission, one hit.
func TestAdmissionProbeCountsOnce(t *testing.T) {
	cache, err := gpuwalk.OpenResultCache(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	srv, err := jobd.NewServer(jobd.Options{Runner: newRunner(cache, 0), Lookup: newLookup(cache, newSpecKeys())})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	spec := tinySpec(t, gpuwalk.FCFS)

	v, err := srv.Submit(jobd.SubmitRequest{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(30 * time.Second); !v.State.Terminal(); {
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", v.State)
		}
		time.Sleep(5 * time.Millisecond)
		v, _ = srv.Job(v.ID)
	}
	if st := cache.Stats(); v.State != jobd.StateDone || st.Hits != 0 || st.Misses != 1 {
		t.Fatalf("first job %s, cache %d hits %d misses; want done, 0 and 1", v.State, st.Hits, st.Misses)
	}

	again, err := srv.Submit(jobd.SubmitRequest{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); again.State != jobd.StateDone || st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("resubmission %s, cache %d hits %d misses; want done, 1 and 1", again.State, st.Hits, st.Misses)
	}
	if !bytes.Equal(again.Items[0].Result, v.Items[0].Result) {
		t.Fatal("the hit served other bytes than the run stored")
	}
}

// TestSweepReadsCachedPrefixOnce: a sweep whose leading item is cached
// and whose next is not is admitted with the probed result, and the
// worker finishes that item from it: one read and one hit for the
// cached item, one miss for the new one, and the usual events.
func TestSweepReadsCachedPrefixOnce(t *testing.T) {
	cache, err := gpuwalk.OpenResultCache(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	srv, err := jobd.NewServer(jobd.Options{Runner: newRunner(cache, 0), Lookup: newLookup(cache, newSpecKeys())})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	wait := func(v jobd.JobView) jobd.JobView {
		t.Helper()
		for deadline := time.Now().Add(30 * time.Second); !v.State.Terminal(); {
			if time.Now().After(deadline) {
				t.Fatalf("job stuck in %s", v.State)
			}
			time.Sleep(5 * time.Millisecond)
			v, _ = srv.Job(v.ID)
		}
		return v
	}
	stored, fresh := tinySpec(t, gpuwalk.FCFS), tinySpec(t, gpuwalk.SIMTAware)
	first, err := srv.Submit(jobd.SubmitRequest{Spec: stored})
	if err != nil {
		t.Fatal(err)
	}
	first = wait(first)

	before := cache.Stats()
	v, err := srv.Submit(jobd.SubmitRequest{Specs: []json.RawMessage{stored, fresh}})
	if err != nil {
		t.Fatal(err)
	}
	v = wait(v)
	st := cache.Stats()
	if v.State != jobd.StateDone || v.CacheHits != 1 || st.Hits-before.Hits != 1 || st.Misses-before.Misses != 1 {
		t.Fatalf("sweep %s with %d cache hits, cache hits +%d misses +%d; want done, 1, +1, +1",
			v.State, v.CacheHits, st.Hits-before.Hits, st.Misses-before.Misses)
	}
	if !bytes.Equal(v.Items[0].Result, first.Items[0].Result) {
		t.Fatal("the probed item served other bytes than the run stored")
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var events []string
	for sc := bufio.NewScanner(resp.Body); sc.Scan(); {
		if typ, ok := strings.CutPrefix(sc.Text(), "event: "); ok && typ != jobd.EventProgress {
			events = append(events, typ)
		}
	}
	if got := strings.Join(events, ","); got != "queued,started,item_done,item_done,done" {
		t.Fatalf("events %s", got)
	}
}

// TestVersionFlag: -version prints the model version and exits 0.
func TestVersionFlag(t *testing.T) {
	var stdout, stderr syncBuffer
	if code := run([]string{"-version"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, stderr.String())
	}
	if got := strings.TrimSpace(stdout.String()); got != gpuwalk.SimVersion {
		t.Fatalf("-version printed %q, want %q", got, gpuwalk.SimVersion)
	}
}

// TestPeersRequireSelf: a backend given only one of -peers and -self
// exits 2 before serving. Without -self a peered backend would mint
// unprefixed IDs that collide with every other node's.
func TestPeersRequireSelf(t *testing.T) {
	for _, args := range [][]string{
		{"-peers", "http://127.0.0.1:1,http://127.0.0.1:2"},
		{"-self", "http://127.0.0.1:1"},
	} {
		var stdout, stderr syncBuffer
		args = append(args, "-addr", "127.0.0.1:0", "-cache", filepath.Join(t.TempDir(), "cache"))
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Fatalf("run %v = %d, want 2\nstderr: %s", args, code, stderr.String())
		}
		if !strings.Contains(stderr.String(), "-peers and -self together") {
			t.Fatalf("run %v: stderr %q does not explain the refusal", args, stderr.String())
		}
	}
}
