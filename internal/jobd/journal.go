package jobd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"gpuwalk/internal/atomicio"
)

// Journal is a durable append-only record of job lifecycles, one JSON
// object per line in <dir>/journal.jsonl. Every append is fsynced
// before it returns, so a job the server acknowledged survives a
// SIGKILL, a crash, or a power cut: on restart, OpenJournal replays
// the file and hands every job that never reached a terminal state
// back to the server for re-enqueueing.
//
// The format is deliberately boring — line-delimited JSON with a
// "type" discriminator — so humans can read it with less(1) and
// future record types can ride along: replay skips types it does not
// recognize instead of refusing to start. A torn final record (the
// crash happened mid-append) is tolerated and dropped; corruption
// anywhere else is an error, because an O_APPEND + fsync-per-record
// writer cannot produce it and it therefore signals real damage.
//
// The journal compacts itself: once the file accumulates enough
// records for jobs that have since finished, it is rewritten
// (atomically, via a temp file + rename) to hold only the jobs still
// live. Terminal jobs need no journal entry at all — their results
// live in the result cache, keyed by content, and the server's job
// table is an in-memory convenience bounded by Options.RetainJobs.
//
// Methods are safe for concurrent use.
type Journal struct {
	path string

	mu         sync.Mutex
	f          *os.File
	records    int                      // lines in the current file
	live       map[string]*RecoveredJob // jobs with no terminal record yet
	maxSeq     uint64                   // highest admission seq ever journaled
	recovered  []*RecoveredJob          // non-terminal jobs found at open, seq order
	stats      JournalStats
	compactMin int // floor before compaction triggers (test hook)
}

// JournalStats counts journal activity since OpenJournal.
type JournalStats struct {
	// Appends counts records written (not replayed).
	Appends uint64
	// Compactions counts file rewrites.
	Compactions uint64
	// Records is the current file's record count.
	Records int
	// Live is the number of jobs with no terminal record.
	Live int
}

// RecoveredJob is one non-terminal job reconstructed from the journal:
// everything the server needs to re-enqueue it exactly as it was
// admitted.
type RecoveredJob struct {
	ID       string
	Seq      uint64
	Priority int
	Timeout  time.Duration
	Specs    []json.RawMessage
	Created  time.Time
}

// journalRecord is the wire form of one line. Fields are a union over
// the record types; unused ones are omitted.
type journalRecord struct {
	Type     string            `json:"type"`
	Job      string            `json:"job,omitempty"`
	Seq      uint64            `json:"seq,omitempty"`
	Priority int               `json:"priority,omitempty"`
	Timeout  string            `json:"timeout,omitempty"`
	Specs    []json.RawMessage `json:"specs,omitempty"`
	Created  time.Time         `json:"created,omitempty"`
	State    State             `json:"state,omitempty"`
	Error    string            `json:"error,omitempty"`
}

// Journal record types. Unknown types are skipped on replay, so new
// ones can be added without breaking older binaries reading the same
// data dir, and the started and retrying records that older binaries
// wrote replay as no-ops.
const (
	recAccepted = "accepted" // job admitted; carries the full spec
	recTerminal = "terminal" // done, failed or cancelled; the job needs no recovery
)

const journalFile = "journal.jsonl"

// defaultCompactMin is the record-count floor below which compaction
// never triggers, so small journals are not rewritten constantly.
const defaultCompactMin = 256

// OpenJournal opens (creating if needed) the journal in dir, replays
// any existing records, and compacts the file down to the jobs still
// live — which also drops a torn final record left by a mid-append
// crash. Call Recovered for the jobs that need re-enqueueing.
func OpenJournal(dir string) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobd: journal: %w", err)
	}
	jl := &Journal{
		path:       filepath.Join(dir, journalFile),
		live:       make(map[string]*RecoveredJob),
		compactMin: defaultCompactMin,
	}
	if err := jl.replay(); err != nil {
		return nil, err
	}
	jl.recovered = jl.liveSorted()
	// Rewrite the file down to one accepted record per live job: this
	// drops terminal-job history, any torn final record, and unknown
	// record types in one stroke, and starts the new process from a
	// clean, minimal file.
	if err := jl.rewrite(); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(jl.path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("jobd: journal: %w", err)
	}
	jl.f = f
	return jl, nil
}

// replay loads the journal file into jl.live. A missing file is an
// empty journal. The file is read whole: the journal is compacted at
// every open, so it holds only the live set plus the appends since —
// small by construction.
func (jl *Journal) replay() error {
	data, err := os.ReadFile(jl.path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("jobd: journal: %w", err)
	}
	lines := bytes.Split(data, []byte("\n"))
	// Find the last non-empty line: only that one may legitimately be
	// torn (a crash mid-append under O_APPEND + fsync-per-record).
	last := -1
	for i, line := range lines {
		if len(bytes.TrimSpace(line)) > 0 {
			last = i
		}
	}
	for i, line := range lines {
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			if i == last {
				break // torn final record: drop it, keep everything before
			}
			// Corruption anywhere else signals real damage; refusing to
			// start beats silently dropping accepted jobs.
			return fmt.Errorf("jobd: journal %s: corrupt record at line %d: %w", jl.path, i+1, err)
		}
		jl.apply(rec)
		jl.records++
	}
	return nil
}

// apply folds one replayed record into the live set.
func (jl *Journal) apply(rec journalRecord) {
	if rec.Seq > jl.maxSeq {
		jl.maxSeq = rec.Seq
	}
	switch rec.Type {
	case recAccepted:
		timeout, _ := time.ParseDuration(rec.Timeout)
		jl.live[rec.Job] = &RecoveredJob{
			ID:       rec.Job,
			Seq:      rec.Seq,
			Priority: rec.Priority,
			Timeout:  timeout,
			Specs:    rec.Specs,
			Created:  rec.Created,
		}
	case recTerminal:
		delete(jl.live, rec.Job)
	default:
		// Future record type (say, sweep checkpoints): skip, don't fail.
	}
}

// liveSorted returns the live jobs in admission (seq) order.
func (jl *Journal) liveSorted() []*RecoveredJob {
	out := make([]*RecoveredJob, 0, len(jl.live))
	for _, r := range jl.live {
		out = append(out, r)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].Seq < out[k].Seq })
	return out
}

// Recovered returns the jobs that were non-terminal when the journal
// was opened, in original admission order. The server re-enqueues
// them; their priorities and seq numbers are preserved, so the queue
// orders them exactly as before the crash.
func (jl *Journal) Recovered() []*RecoveredJob {
	jl.mu.Lock()
	defer jl.mu.Unlock()
	return jl.recovered
}

// MaxSeq returns the highest admission sequence number ever journaled,
// so a recovering server can continue numbering without reusing IDs.
func (jl *Journal) MaxSeq() uint64 {
	jl.mu.Lock()
	defer jl.mu.Unlock()
	return jl.maxSeq
}

// Stats returns a snapshot of the activity counters.
func (jl *Journal) Stats() JournalStats {
	jl.mu.Lock()
	defer jl.mu.Unlock()
	st := jl.stats
	st.Records = jl.records
	st.Live = len(jl.live)
	return st
}

// Accepted journals a job admission. It must succeed before the
// server acknowledges the submission: once the client sees 202, the
// job is on disk.
func (jl *Journal) Accepted(id string, seq uint64, priority int, timeout time.Duration, specs []json.RawMessage, created time.Time) error {
	jl.mu.Lock()
	defer jl.mu.Unlock()
	rec := journalRecord{
		Type:     recAccepted,
		Job:      id,
		Seq:      seq,
		Priority: priority,
		Specs:    specs,
		Created:  created,
	}
	if timeout > 0 {
		rec.Timeout = timeout.String()
	}
	jl.live[id] = &RecoveredJob{
		ID: id, Seq: seq, Priority: priority, Timeout: timeout,
		Specs: specs, Created: created,
	}
	if seq > jl.maxSeq {
		jl.maxSeq = seq
	}
	return jl.appendLocked(rec)
}

// Terminal journals a job reaching its final state. The job no longer
// needs recovery; compaction will drop its records.
func (jl *Journal) Terminal(id string, state State, errText string) error {
	jl.mu.Lock()
	defer jl.mu.Unlock()
	delete(jl.live, id)
	return jl.appendLocked(journalRecord{Type: recTerminal, Job: id, State: state, Error: errText})
}

// appendLocked writes one record and fsyncs it. When the file has
// grown well past the live set — most of its records describe jobs
// that already finished — it is compacted in place. Caller holds jl.mu.
func (jl *Journal) appendLocked(rec journalRecord) error {
	if jl.f == nil {
		return fmt.Errorf("jobd: journal %s: closed", jl.path)
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("jobd: journal: %w", err)
	}
	b = append(b, '\n')
	if _, err := jl.f.Write(b); err != nil {
		return fmt.Errorf("jobd: journal %s: %w", jl.path, err)
	}
	if err := jl.f.Sync(); err != nil {
		return fmt.Errorf("jobd: journal %s: %w", jl.path, err)
	}
	jl.records++
	jl.stats.Appends++
	if jl.records >= jl.compactMin && jl.records > 4*len(jl.live) {
		return jl.compactLocked()
	}
	return nil
}

// compactLocked rewrites the file down to the live set and reopens it
// for appending. Caller holds jl.mu.
func (jl *Journal) compactLocked() error {
	if err := jl.f.Close(); err != nil {
		return fmt.Errorf("jobd: journal %s: %w", jl.path, err)
	}
	jl.f = nil
	if err := jl.rewrite(); err != nil {
		return err
	}
	f, err := os.OpenFile(jl.path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("jobd: journal %s: %w", jl.path, err)
	}
	jl.f = f
	jl.stats.Compactions++
	return nil
}

// rewrite atomically replaces the journal file with one accepted
// record per live job, in seq order.
func (jl *Journal) rewrite() error {
	err := atomicio.WriteFile(jl.path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		for _, r := range jl.liveSorted() {
			rec := journalRecord{
				Type:     recAccepted,
				Job:      r.ID,
				Seq:      r.Seq,
				Priority: r.Priority,
				Specs:    r.Specs,
				Created:  r.Created,
			}
			if r.Timeout > 0 {
				rec.Timeout = r.Timeout.String()
			}
			if err := enc.Encode(&rec); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("jobd: journal %s: %w", jl.path, err)
	}
	jl.records = len(jl.live)
	return nil
}

// Close releases the journal file. Further appends fail.
func (jl *Journal) Close() error {
	jl.mu.Lock()
	defer jl.mu.Unlock()
	if jl.f == nil {
		return nil
	}
	err := jl.f.Close()
	jl.f = nil
	return err
}
