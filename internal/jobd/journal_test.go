package jobd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func openTestJournal(t *testing.T, dir string) *Journal {
	t.Helper()
	jl, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { jl.Close() })
	return jl
}

func spec(s string) []json.RawMessage { return []json.RawMessage{json.RawMessage(s)} }

func TestJournalEmpty(t *testing.T) {
	jl := openTestJournal(t, t.TempDir())
	if got := jl.Recovered(); len(got) != 0 {
		t.Fatalf("fresh journal recovered %d jobs", len(got))
	}
	if jl.MaxSeq() != 0 {
		t.Fatalf("fresh journal MaxSeq = %d", jl.MaxSeq())
	}
}

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	jl := openTestJournal(t, dir)
	created := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	if err := jl.Accepted("j000001", 1, 5, 30*time.Second, spec(`{"k":1}`), created); err != nil {
		t.Fatal(err)
	}
	if err := jl.Accepted("j000002", 2, 0, 0, spec(`{"k":2}`), created); err != nil {
		t.Fatal(err)
	}
	if err := jl.Terminal("j000002", StateDone, ""); err != nil {
		t.Fatal(err)
	}
	jl.Close()

	re := openTestJournal(t, dir)
	rec := re.Recovered()
	if len(rec) != 1 {
		t.Fatalf("recovered %d jobs, want 1 (the non-terminal one)", len(rec))
	}
	r := rec[0]
	if r.ID != "j000001" || r.Seq != 1 || r.Priority != 5 || r.Timeout != 30*time.Second ||
		!r.Created.Equal(created) {
		t.Fatalf("recovered job = %+v", r)
	}
	if string(r.Specs[0]) != `{"k":1}` {
		t.Fatalf("recovered spec = %s", r.Specs[0])
	}
	if re.MaxSeq() != 2 {
		t.Fatalf("MaxSeq = %d, want 2 (terminal jobs still reserve their seq)", re.MaxSeq())
	}
}

// TestJournalTornFinalRecord: a crash mid-append leaves a partial last
// line; replay keeps everything before it and the reopened journal's
// compaction drops the torn bytes.
func TestJournalTornFinalRecord(t *testing.T) {
	dir := t.TempDir()
	jl := openTestJournal(t, dir)
	if err := jl.Accepted("j000001", 1, 0, 0, spec(`{"k":1}`), time.Now()); err != nil {
		t.Fatal(err)
	}
	jl.Close()

	path := filepath.Join(dir, journalFile)
	for _, torn := range []string{
		`{"type":"terminal","job":"j0000`, // cut mid-record, no newline
		`{"type":"accepted","job":`,       // cut mid-record for a new job
		"\x00\x00\x00",                    // garbage tail
	} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, torn...), 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := OpenJournal(dir)
		if err != nil {
			t.Fatalf("torn tail %q: open failed: %v", torn, err)
		}
		rec := re.Recovered()
		if len(rec) != 1 || rec[0].ID != "j000001" {
			t.Fatalf("torn tail %q: recovered %d jobs", torn, len(rec))
		}
		re.Close()
		// The rewrite at open dropped the torn bytes: every remaining
		// line parses.
		clean, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for n, line := range strings.Split(strings.TrimRight(string(clean), "\n"), "\n") {
			var rec journalRecord
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				t.Fatalf("torn tail %q: line %d of compacted file unparseable: %q", torn, n+1, line)
			}
		}
	}
}

// TestJournalCorruptMiddleRecordFails: corruption anywhere but the
// final line cannot come from a crash of this writer — refuse to start
// rather than silently dropping accepted jobs.
func TestJournalCorruptMiddleRecordFails(t *testing.T) {
	dir := t.TempDir()
	jl := openTestJournal(t, dir)
	for i := 1; i <= 3; i++ {
		if err := jl.Accepted(fmt.Sprintf("j%06d", i), uint64(i), 0, 0, spec(`{}`), time.Now()); err != nil {
			t.Fatal(err)
		}
	}
	jl.Close()

	path := filepath.Join(dir, journalFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	lines[1] = "{broken json\n"
	if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(dir); err == nil {
		t.Fatal("mid-file corruption did not fail the open")
	}
}

// TestJournalUnknownRecordTypeSkipped: record types a reader does not
// know are skipped, not failed. That covers a newer binary's records
// (sweep checkpoints, say) and the started and retrying records that
// binaries with server-side retries wrote, so their journals replay.
// The rewrite at open drops every skipped record.
func TestJournalUnknownRecordTypeSkipped(t *testing.T) {
	for _, tc := range []struct {
		name     string
		journal  []string
		wantIDs  []string
		wantPrio []int
		wantSeq  uint64
	}{{
		name: "future",
		journal: []string{
			`{"type":"accepted","job":"j000001","seq":1,"specs":[{"k":1}],"created":"2026-08-08T12:00:00Z"}`,
			`{"type":"sweep-checkpoint","job":"j000001","point":17}`,
			`{"type":"accepted","job":"j000002","seq":2,"specs":[{"k":2}]}`,
		},
		wantIDs:  []string{"j000001", "j000002"},
		wantPrio: []int{0, 0},
		wantSeq:  2,
	}, {
		// Lines as the retrying daemon wrote them: a live job compacted
		// after its first run, started again and sent back to the queue,
		// and a job that ran to done.
		name: "retry-records",
		journal: []string{
			`{"type":"accepted","job":"j000003","seq":3,"priority":7,"specs":[{"k":3}],"created":"2026-08-08T12:00:00Z","attempt":1}`,
			`{"type":"accepted","job":"j000004","seq":4,"specs":[{"k":4}],"created":"2026-08-08T12:00:01Z"}`,
			`{"type":"started","job":"j000003","created":"0001-01-01T00:00:00Z","attempt":2}`,
			`{"type":"started","job":"j000004","created":"0001-01-01T00:00:00Z","attempt":1}`,
			`{"type":"terminal","job":"j000004","created":"0001-01-01T00:00:00Z","state":"done"}`,
			`{"type":"retrying","job":"j000003","created":"0001-01-01T00:00:00Z","attempt":2,"error":"sim: watchdog stall"}`,
		},
		wantIDs:  []string{"j000003"},
		wantPrio: []int{7},
		wantSeq:  4,
	}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, journalFile)
			if err := os.WriteFile(path, []byte(strings.Join(tc.journal, "\n")+"\n"), 0o644); err != nil {
				t.Fatal(err)
			}
			re := openTestJournal(t, dir)
			rec := re.Recovered()
			if len(rec) != len(tc.wantIDs) {
				t.Fatalf("recovered %d jobs, want %d", len(rec), len(tc.wantIDs))
			}
			for i, r := range rec {
				if r.ID != tc.wantIDs[i] || r.Priority != tc.wantPrio[i] {
					t.Errorf("recovered job %d = %s priority %d, want %s priority %d",
						i, r.ID, r.Priority, tc.wantIDs[i], tc.wantPrio[i])
				}
			}
			if got := re.MaxSeq(); got != tc.wantSeq {
				t.Errorf("MaxSeq = %d, want %d", got, tc.wantSeq)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			for _, stale := range []string{"sweep-checkpoint", `"attempt"`, "started", "retrying", "terminal"} {
				if strings.Contains(string(data), stale) {
					t.Errorf("rewritten journal still contains %s:\n%s", stale, data)
				}
			}
		})
	}
}

// TestJournalCompaction: the file must not grow without bound as jobs
// flow through; once most records describe finished jobs it is
// rewritten down to the live set.
func TestJournalCompaction(t *testing.T) {
	dir := t.TempDir()
	jl := openTestJournal(t, dir)
	jl.compactMin = 8 // shrink the floor so the test stays fast

	for i := 1; i <= 50; i++ {
		id := fmt.Sprintf("j%06d", i)
		if err := jl.Accepted(id, uint64(i), 0, 0, spec(`{}`), time.Now()); err != nil {
			t.Fatal(err)
		}
		if err := jl.Terminal(id, StateDone, ""); err != nil {
			t.Fatal(err)
		}
	}
	st := jl.Stats()
	if st.Compactions == 0 {
		t.Fatalf("no compactions after 100 appends: %+v", st)
	}
	if st.Records > 10 {
		t.Fatalf("journal still holds %d records for 0 live jobs", st.Records)
	}
	data, err := os.ReadFile(filepath.Join(dir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(data), "\n"); n > 10 {
		t.Fatalf("journal file has %d lines for 0 live jobs", n)
	}

	// Appends still work on the reopened handle.
	if err := jl.Accepted("j000051", 51, 0, 0, spec(`{}`), time.Now()); err != nil {
		t.Fatalf("append after compaction: %v", err)
	}
}

// TestServerRecoversJournaledJobs: the server half of the tentpole —
// non-terminal jobs come back queued with their IDs, priorities and
// order intact, and run to completion.
func TestServerRecoversJournaledJobs(t *testing.T) {
	dir := t.TempDir()
	var calls atomic.Int64

	// First life: accept three jobs on a gated runner so none finish,
	// then abandon the server without draining (the crash).
	gate := make(chan struct{})
	jl := openTestJournal(t, dir)
	s1, err := NewServer(Options{
		Runner: func(ctx context.Context, spec json.RawMessage) (json.RawMessage, bool, error) {
			select {
			case <-gate:
				return spec, false, nil
			case <-ctx.Done():
				return nil, false, ctx.Err()
			}
		},
		Workers: 1,
		Journal: jl,
	})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i, prio := range []int{0, 7, 3} {
		v, err := s1.Submit(SubmitRequest{Spec: json.RawMessage(fmt.Sprintf(`{"i":%d}`, i)), Priority: prio})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
	}
	// Simulate the crash: close the journal FIRST so the cancellations
	// below cannot journal terminal records (a real crash writes
	// nothing), then abort the workers. Close is what a SIGKILL does to
	// the file descriptor anyway.
	jl.Close()
	s1.cancelBase()
	close(gate)

	// Second life: a fresh journal handle replays the same dir.
	re := openTestJournal(t, dir)
	s2, err := NewServer(Options{
		Runner: func(ctx context.Context, spec json.RawMessage) (json.RawMessage, bool, error) {
			calls.Add(1)
			return spec, false, nil
		},
		Workers: 1,
		Journal: re,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()

	for _, id := range ids {
		v := waitTerminal(t, s2, id)
		if v.State != StateDone {
			t.Fatalf("recovered job %s ended %s (%s)", id, v.State, v.Error)
		}
		if !v.Recovered {
			t.Errorf("job %s not marked recovered", id)
		}
	}
	if calls.Load() != 3 {
		t.Fatalf("runner ran %d times, want 3", calls.Load())
	}

	// Priority order was preserved: the priority-7 job (ids[1]) must
	// have started before the priority-0 one (ids[0]). Check via the
	// event logs' started order using Started timestamps.
	v0, _ := s2.Job(ids[0])
	v1, _ := s2.Job(ids[1])
	if v1.Started == nil || v0.Started == nil || v1.Started.After(*v0.Started) {
		t.Errorf("priority 7 job started %v, after priority 0 job at %v", v1.Started, v0.Started)
	}

	// New submissions continue the ID sequence instead of reusing it,
	// and a job run to done journals two records: accepted and terminal.
	appends := re.Stats().Appends
	v, err := s2.Submit(SubmitRequest{Spec: json.RawMessage(`{"new":true}`)})
	if err != nil {
		t.Fatal(err)
	}
	if v.ID != "j000004" {
		t.Errorf("post-recovery ID = %s, want j000004", v.ID)
	}
	if v := waitTerminal(t, s2, v.ID); v.State != StateDone {
		t.Fatalf("new job ended %s (%s)", v.State, v.Error)
	}
	// The worker appends the terminal record after the job turns done;
	// Drain waits for it.
	if err := s2.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := re.Stats().Appends - appends; got != 2 {
		t.Errorf("a job run to done journaled %d records, want 2", got)
	}
}

// TestRecoveryThenEvict: recovered jobs run, finish, and then count
// against RetainJobs like any other terminal job — and the journal
// ends the second life with nothing live.
func TestRecoveryThenEvict(t *testing.T) {
	dir := t.TempDir()
	jl := openTestJournal(t, dir)
	// Journal five accepted jobs as a crashed daemon would have left
	// them: accepted, never terminal.
	for i := 1; i <= 5; i++ {
		if err := jl.Accepted(fmt.Sprintf("j%06d", i), uint64(i), 0, 0,
			spec(fmt.Sprintf(`{"i":%d}`, i)), time.Now()); err != nil {
			t.Fatal(err)
		}
	}
	jl.Close()

	re := openTestJournal(t, dir)
	var calls atomic.Int64
	s := newTestServer(t, Options{
		Runner:     echoRunner(&calls),
		Workers:    1,
		RetainJobs: 2,
		Journal:    re,
	})
	// All five recovered jobs reach done; the oldest three are evicted.
	deadline := time.Now().Add(10 * time.Second)
	for calls.Load() < 5 {
		if time.Now().After(deadline) {
			t.Fatalf("recovered jobs did not run: %d of 5", calls.Load())
		}
		time.Sleep(2 * time.Millisecond)
	}
	for {
		if len(s.Jobs()) == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("retained %d jobs, want 2", len(s.Jobs()))
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, ok := s.Job("j000001"); ok {
		t.Error("oldest recovered job survived the retention bound")
	}
	// Terminal records are appended after the jobs turn done; Drain
	// waits for them.
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := re.Stats(); st.Live != 0 {
		t.Errorf("journal still has %d live jobs after all finished", st.Live)
	}
}

// TestSubmitFailsWhenJournalBroken: durability before acknowledgement
// — if the accepted record cannot be written, the submission must be
// rejected, not silently accepted volatile.
func TestSubmitFailsWhenJournalBroken(t *testing.T) {
	jl := openTestJournal(t, t.TempDir())
	jl.Close() // journal now refuses appends
	var calls atomic.Int64
	s := newTestServer(t, Options{Runner: echoRunner(&calls), Workers: 1, Journal: jl})
	_, err := s.Submit(SubmitRequest{Spec: json.RawMessage(`{}`)})
	if !errors.Is(err, ErrJournal) {
		t.Fatalf("submit with a dead journal: err = %v, want ErrJournal", err)
	}
	if got := len(s.Jobs()); got != 0 {
		t.Fatalf("rejected submission left %d jobs in the table", got)
	}
}
