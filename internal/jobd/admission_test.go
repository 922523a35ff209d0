package jobd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gpuwalk/internal/obs"
)

// fakeCache stands in for gpuwalkd's result cache: a map from spec to
// stored result behind both the admission hook and the runner.
type fakeCache struct {
	results map[string]json.RawMessage
	probes  atomic.Int64
}

// newFakeCache stores one distinct result for each of specs.
func newFakeCache(specs ...string) *fakeCache {
	c := &fakeCache{results: map[string]json.RawMessage{}}
	for i, s := range specs {
		c.results[s] = json.RawMessage(fmt.Sprintf(`{"stored":%d}`, i))
	}
	return c
}

// lookup is the admission hook. Like gpuwalkd's, it records a
// cache.lookup span under the span its context carries.
func (c *fakeCache) lookup(ctx context.Context, spec json.RawMessage) (json.RawMessage, bool) {
	c.probes.Add(1)
	sp := obs.SpanRefFrom(ctx).Start("cache.lookup")
	r, ok := c.results[string(spec)]
	sp.End()
	return r, ok
}

// runner serves a stored result as a hit and echoes any other spec as
// a fresh result, counting its calls.
func (c *fakeCache) runner(calls *atomic.Int64) Runner {
	return func(ctx context.Context, spec json.RawMessage) (json.RawMessage, bool, error) {
		calls.Add(1)
		if r, ok := c.results[string(spec)]; ok {
			return r, true, nil
		}
		return spec, false, nil
	}
}

func rawSpecs(specs ...string) []json.RawMessage {
	out := make([]json.RawMessage, len(specs))
	for i, s := range specs {
		out[i] = json.RawMessage(s)
	}
	return out
}

// jobEvents returns job id's event log.
func jobEvents(s *Server, id string) []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	evs, _ := s.jobs[id].events(0)
	return evs
}

func eventTypes(evs []Event) string {
	types := make([]string, len(evs))
	for i, ev := range evs {
		types[i] = ev.Type
	}
	return strings.Join(types, ",")
}

// exposition parses the server's metric families as /metrics serves
// them.
func exposition(t *testing.T, s *Server) *obs.PromText {
	t.Helper()
	var b bytes.Buffer
	if err := s.Metrics().WriteText(&b); err != nil {
		t.Fatal(err)
	}
	doc, err := obs.ParsePromText(&b)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// itemCounters reads the counters a finished job moves.
func itemCounters(t *testing.T, s *Server) map[string]float64 {
	t.Helper()
	doc := exposition(t, s)
	out := map[string]float64{}
	for _, key := range []string{
		`jobd_jobs_submitted_total`,
		`jobd_items_total{outcome="ok"}`,
		`jobd_item_cache_total{result="hit"}`,
		`jobd_item_cache_total{result="miss"}`,
		`jobd_jobs_finished_total{state="done"}`,
	} {
		out[key], _ = doc.Sample(key)
	}
	return out
}

func counterDelta(before, after map[string]float64) map[string]float64 {
	d := map[string]float64{}
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// TestAdmissionAnswersHits: a submission whose every item is in the
// cache is done when Submit returns. Its results are the stored bytes,
// it writes no journal record and never reaches the runner, and its
// events and counters are those of the same job run to done by a
// worker whose runner hits.
func TestAdmissionAnswersHits(t *testing.T) {
	for _, n := range []int{1, 3} {
		t.Run(fmt.Sprintf("items=%d", n), func(t *testing.T) {
			var specs []string
			for i := 0; i < n; i++ {
				specs = append(specs, fmt.Sprintf(`{"i":%d}`, i))
			}
			fc := newFakeCache(specs...)
			jl := openTestJournal(t, t.TempDir())
			var calls, refCalls atomic.Int64
			s := newTestServer(t, Options{Runner: fc.runner(&calls), Lookup: fc.lookup, Journal: jl})
			// The reference: no hook, so a worker runs the same hits.
			ref := newTestServer(t, Options{Runner: fc.runner(&refCalls)})

			before := itemCounters(t, s)
			v, err := s.Submit(SubmitRequest{Specs: rawSpecs(specs...)})
			if err != nil {
				t.Fatal(err)
			}
			if v.State != StateDone || v.ItemsDone != n || v.CacheHits != n || v.Error != "" {
				t.Fatalf("Submit view = %+v, want done with %d cache hits", v, n)
			}
			for i, it := range v.Items {
				if !it.Done || !it.CacheHit || !bytes.Equal(it.Result, fc.results[specs[i]]) {
					t.Fatalf("item %d = %+v, want the stored %s as a done cache hit", i, it, fc.results[specs[i]])
				}
			}
			if v.Started == nil || v.Finished == nil || !v.Started.Equal(v.Created) || !v.Finished.Equal(v.Created) {
				t.Fatalf("created %v, started %v, finished %v: want all the admission time", v.Created, v.Started, v.Finished)
			}
			if got := fc.probes.Load(); got != int64(n) {
				t.Fatalf("%d probes, want %d", got, n)
			}
			if calls.Load() != 0 {
				t.Fatalf("runner called %d times for a job born done", calls.Load())
			}
			if a := jl.Stats().Appends; a != 0 {
				t.Fatalf("a job born done journaled %d records", a)
			}
			got := counterDelta(before, itemCounters(t, s))

			refBefore := itemCounters(t, ref)
			rv, err := ref.Submit(SubmitRequest{Specs: rawSpecs(specs...)})
			if err != nil {
				t.Fatal(err)
			}
			if rv = waitTerminal(t, ref, rv.ID); rv.State != StateDone || refCalls.Load() != int64(n) {
				t.Fatalf("reference job %s after %d runner calls", rv.State, refCalls.Load())
			}
			want := counterDelta(refBefore, itemCounters(t, ref))

			evs := jobEvents(s, v.ID)
			wantTypes := "queued,started" + strings.Repeat(",item_done", n) + ",done"
			if eventTypes(evs) != wantTypes {
				t.Fatalf("events %s, want %s", eventTypes(evs), wantTypes)
			}
			if refEvs := jobEvents(ref, rv.ID); !reflect.DeepEqual(evs, refEvs) {
				t.Fatalf("events %+v, a worker-run hit's %+v", evs, refEvs)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("counters moved %v, a worker-run hit's %v", got, want)
			}
			if got[`jobd_items_total{outcome="ok"}`] != float64(n) || got[`jobd_jobs_finished_total{state="done"}`] != 1 {
				t.Fatalf("counters moved %v", got)
			}

			// The trace is the submit span and one lookup under it per item.
			s.mu.Lock()
			spans := s.jobs[v.ID].trace.Spans()
			s.mu.Unlock()
			var submitID obs.SpanID
			lookups := 0
			for _, sp := range spans {
				switch sp.Name {
				case spanSubmit:
					submitID = sp.ID
				case "cache.lookup":
					lookups++
				default:
					t.Fatalf("span %q in a job born done; spans %v", sp.Name, names(spans))
				}
			}
			for _, sp := range spans {
				if sp.Name == "cache.lookup" && sp.Parent != submitID {
					t.Fatalf("cache.lookup parent %s, want the submit span %s", sp.Parent, submitID)
				}
			}
			if lookups != n {
				t.Fatalf("%d cache.lookup spans, want %d", lookups, n)
			}
		})
	}
}

// TestAdmissionMissAdmitsWholeJob: one miss among hits admits the job
// as before the probe existed, carrying the results of the leading
// items that hit. The probe stops at the miss, the worker finishes the
// probed items without running them and runs the rest, and the journal
// holds the job's two records.
func TestAdmissionMissAdmitsWholeJob(t *testing.T) {
	fc := newFakeCache(`{"i":0}`, `{"i":2}`)
	jl := openTestJournal(t, t.TempDir())
	var calls atomic.Int64
	s := newTestServer(t, Options{Runner: fc.runner(&calls), Lookup: fc.lookup, Journal: jl})

	v, err := s.Submit(SubmitRequest{Specs: rawSpecs(`{"i":0}`, `{"i":1}`, `{"i":2}`)})
	if err != nil {
		t.Fatal(err)
	}
	if v.State.Terminal() {
		t.Fatalf("a job with a miss was admitted %s", v.State)
	}
	if got := fc.probes.Load(); got != 2 {
		t.Fatalf("%d probes, want 2: the probe stops at the first miss", got)
	}
	v = waitTerminal(t, s, v.ID)
	if v.State != StateDone || v.CacheHits != 2 || calls.Load() != 2 {
		t.Fatalf("job %s with %d cache hits after %d runner calls, want done, 2, 2", v.State, v.CacheHits, calls.Load())
	}
	for i, it := range v.Items {
		want := fc.results[string(it.Spec)]
		if i == 1 {
			want = it.Spec // the runner echoes a miss
		}
		if !it.Done || it.CacheHit != (i != 1) || !bytes.Equal(it.Result, want) {
			t.Fatalf("item %d = %+v, want result %s", i, it, want)
		}
	}
	if got := eventTypes(jobEvents(s, v.ID)); got != "queued,started,item_done,item_done,item_done,done" {
		t.Fatalf("events %s", got)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if a := jl.Stats().Appends; a != 2 {
		t.Fatalf("the job journaled %d records, want accepted and terminal", a)
	}
}

// TestAdmissionHitBypassesQueueBound: a job born done takes no queue
// slot, so a full queue admits it; a draining server still refuses it.
func TestAdmissionHitBypassesQueueBound(t *testing.T) {
	fc := newFakeCache(`{"hit":1}`)
	var calls atomic.Int64
	s := newTestServer(t, Options{Runner: echoRunner(&calls), Lookup: fc.lookup, Workers: 1, QueueSize: 1})

	running, err := s.Submit(SubmitRequest{Spec: json.RawMessage(`{"block":true}`)})
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); ; {
		if v, _ := s.Job(running.ID); v.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := s.Submit(SubmitRequest{Spec: json.RawMessage(`{"block":true,"n":2}`)}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(SubmitRequest{Spec: json.RawMessage(`{"block":true,"n":3}`)}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("a miss with the queue full: err = %v, want ErrQueueFull", err)
	}
	v, err := s.Submit(SubmitRequest{Spec: json.RawMessage(`{"hit":1}`)})
	if err != nil || v.State != StateDone {
		t.Fatalf("a hit with the queue full: %s, %v; want done", v.State, err)
	}

	s.Close()
	if _, err := s.Submit(SubmitRequest{Spec: json.RawMessage(`{"hit":1}`)}); !errors.Is(err, ErrDraining) {
		t.Fatalf("a hit while draining: err = %v, want ErrDraining", err)
	}
}
