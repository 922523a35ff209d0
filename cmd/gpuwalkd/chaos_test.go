package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"gpuwalk"
	"gpuwalk/internal/jobd"
	"gpuwalk/internal/obs"
)

// TestChaosChild is not a test: it is the gpuwalkd subprocess of
// TestChaosKillRestart, re-exec'd from the test binary so the chaos
// test needs no separately built artifact. Guarded by an env var so a
// normal `go test` run skips straight past it.
func TestChaosChild(t *testing.T) {
	if os.Getenv("GPUWALKD_CHAOS_CHILD") != "1" {
		t.Skip("chaos child: only meaningful when re-exec'd by TestChaosKillRestart")
	}
	var args []string
	if err := json.Unmarshal([]byte(os.Getenv("GPUWALKD_CHAOS_ARGS")), &args); err != nil {
		fmt.Fprintf(os.Stderr, "chaos child: bad args: %v\n", err)
		os.Exit(2)
	}
	os.Exit(run(args, os.Stdout, os.Stderr))
}

// chaosServer is one re-exec'd gpuwalkd subprocess.
type chaosServer struct {
	cmd    *exec.Cmd
	base   string // http://host:port once announced
	stdout *syncBuffer
}

// startChaosServer launches the test binary as a gpuwalkd subprocess
// and waits for it to announce its listen address.
func startChaosServer(t *testing.T, args []string) *chaosServer {
	t.Helper()
	argsJSON, err := json.Marshal(args)
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestChaosChild$", "-test.v")
	cmd.Env = append(os.Environ(),
		"GPUWALKD_CHAOS_CHILD=1",
		"GPUWALKD_CHAOS_ARGS="+string(argsJSON),
	)
	var stdout syncBuffer
	cmd.Stdout = &stdout
	cmd.Stderr = io.Discard
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	cs := &chaosServer{cmd: cmd, stdout: &stdout}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			_ = cmd.Process.Kill()
			_, _ = cmd.Process.Wait()
		}
	})
	deadline := time.Now().Add(30 * time.Second)
	for {
		if m := listenRE.FindStringSubmatch(stdout.String()); m != nil {
			cs.base = "http://" + m[1]
			return cs
		}
		if time.Now().After(deadline) {
			t.Fatalf("subprocess never announced its address\nstdout: %s", stdout.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// chaosCfg is a tiny simulation whose workload varies with seed, so
// every job is distinct work (no accidental cross-job cache hits
// hiding lost computation). The cluster test also hashes these configs
// client-side to predict ring placement.
func chaosCfg(sched gpuwalk.SchedulerKind, seed uint64) gpuwalk.Config {
	cfg := gpuwalk.DefaultConfig()
	cfg.GPU.CUs = 2
	cfg.Scheduler = sched
	cfg.Gen.Scale = 0.02
	cfg.Gen.WavefrontsPerCU = 2
	cfg.Gen.InstrsPerWavefront = 6
	cfg.Seed = seed
	return cfg
}

// chaosSpec marshals one chaosCfg as a job spec.
func chaosSpec(t *testing.T, sched gpuwalk.SchedulerKind, seed uint64) json.RawMessage {
	t.Helper()
	b, err := json.Marshal(chaosCfg(sched, seed))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestChaosKillRestart is the crash-safety acceptance test: SIGKILL a
// live gpuwalkd mid-sweep, restart it on the same cache and journal
// directories, and require that every job the dead server had
// acknowledged reaches a terminal state on the restarted one — with
// results byte-identical to an uninterrupted in-process run of the
// same configs.
func TestChaosKillRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos test")
	}
	tmp := t.TempDir()
	cacheDir := filepath.Join(tmp, "cache")
	journalDir := filepath.Join(tmp, "journal")
	serverArgs := []string{
		"-addr", "127.0.0.1:0",
		"-cache", cacheDir,
		"-journal", journalDir,
		"-workers", "1", // one worker: most submitted jobs are still queued at the kill
		"-log-format", "text",
	}

	// Life one: accept a batch of sweeps, then SIGKILL while the queue
	// is still full of them.
	s1 := startChaosServer(t, serverArgs)
	client := &jobd.Client{BaseURL: s1.base}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	const jobs = 8
	var ids []string
	var specs [][]json.RawMessage
	for i := 0; i < jobs; i++ {
		sweep := []json.RawMessage{
			chaosSpec(t, gpuwalk.FCFS, uint64(100+i)),
			chaosSpec(t, gpuwalk.SIMTAware, uint64(100+i)),
		}
		v, err := client.Submit(ctx, jobd.SubmitRequest{Specs: sweep})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, v.ID)
		specs = append(specs, sweep)
	}

	// Let the single worker get into the sweep, then pull the plug.
	// The 202s above are the contract being tested: acknowledged work
	// must survive what comes next.
	waitForStarted := time.Now().Add(10 * time.Second)
	for {
		v, err := client.Job(ctx, ids[0])
		if err == nil && v.Started != nil {
			break
		}
		if time.Now().After(waitForStarted) {
			t.Fatalf("first job never started\nstdout: %s", s1.stdout.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := s1.cmd.Process.Kill(); err != nil { // SIGKILL: no drain, no journal flush
		t.Fatal(err)
	}
	_ = s1.cmd.Wait()

	// Life two: same dirs, fresh process. The journal replay must
	// re-enqueue whatever had not finished. Jobs that DID finish
	// before the kill are journal-terminal and not retained across the
	// restart (404 here); their results must still be in the cache,
	// which the post-shutdown sweep below verifies for every job.
	s2 := startChaosServer(t, serverArgs)
	client2 := &jobd.Client{BaseURL: s2.base}
	recoveredIDs := make(map[string]bool)
	for _, id := range ids {
		v, err := waitTerminal(ctx, client2, id)
		if errors.Is(err, jobd.ErrNotFound) {
			continue // finished before the kill; cache sweep covers it
		}
		if err != nil {
			t.Fatalf("job %s after restart: %v\nstdout: %s", id, err, s2.stdout.String())
		}
		if v.State != jobd.StateDone {
			t.Fatalf("job %s ended %s (%s) after restart, want done", id, v.State, v.Error)
		}
		if !v.Recovered {
			t.Errorf("job %s survived the restart but is not marked recovered", id)
		}
		recoveredIDs[id] = true
	}
	if len(recoveredIDs) == 0 {
		t.Fatalf("no job needed recovery: the kill interrupted nothing\nstdout: %s", s1.stdout.String())
	}

	// The kill really interrupted work: the restarted daemon recovered
	// at least one job from the journal. (With one worker and eight
	// sweeps submitted moments before the kill, the queue cannot have
	// drained.)
	resp, err := http.Get(s2.base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, err := obs.ParsePromText(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if n, ok := prom.Sample("jobd_jobs_recovered_total"); !ok || n < 1 {
		t.Fatalf("jobd_jobs_recovered_total = %v (present=%v): the kill interrupted nothing?", n, ok)
	}

	// Byte-identical results, part one: every item of every recovered
	// job matches an uninterrupted run of the same config in this
	// process, against a reference cache the chaos never touched.
	refCache, err := gpuwalk.OpenResultCache(filepath.Join(tmp, "refcache"), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer refCache.Close()
	reference := func(spec json.RawMessage) string {
		t.Helper()
		var cfg gpuwalk.Config
		if err := json.Unmarshal(spec, &cfg); err != nil {
			t.Fatal(err)
		}
		res, _, err := gpuwalk.RunCached(ctx, refCache, cfg)
		if err != nil {
			t.Fatalf("reference run: %v", err)
		}
		want, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return string(want)
	}
	for i, id := range ids {
		if !recoveredIDs[id] {
			continue
		}
		v, err := client2.Job(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		for k, item := range v.Items {
			if got := string(item.Result); got != reference(specs[i][k]) {
				t.Errorf("job %s item %d: result diverges from uninterrupted run", id, k)
			}
		}
	}

	// The second life shuts down cleanly, leaving an empty journal.
	if err := s2.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := s2.cmd.Wait(); err != nil {
		t.Fatalf("restarted server exited uncleanly: %v\nstdout: %s", err, s2.stdout.String())
	}
	jl, err := jobd.OpenJournal(journalDir)
	if err != nil {
		t.Fatal(err)
	}
	defer jl.Close()
	if n := len(jl.Recovered()); n != 0 {
		t.Errorf("journal still holds %d live jobs after a clean drain", n)
	}

	// Byte-identical results, part two: the server's cache — the only
	// durable home of results for jobs that finished before the kill —
	// holds every item of every accepted job, each byte-identical to
	// the uninterrupted reference. Zero accepted jobs lost.
	cache, err := gpuwalk.OpenResultCache(cacheDir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	for i, id := range ids {
		for k, spec := range specs[i] {
			var cfg gpuwalk.Config
			if err := json.Unmarshal(spec, &cfg); err != nil {
				t.Fatal(err)
			}
			res, hit, err := gpuwalk.RunCached(ctx, cache, cfg)
			if err != nil {
				t.Fatalf("job %s item %d: server cache: %v", id, k, err)
			}
			if !hit {
				t.Errorf("job %s item %d: result missing from the server cache — accepted work was lost", id, k)
				continue
			}
			got, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != reference(spec) {
				t.Errorf("job %s item %d: cached result diverges from uninterrupted run", id, k)
			}
		}
	}
}
