package jobd

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// encodedView is the reference for every view the server writes: the
// bytes json.NewEncoder(w).Encode(v) wrote before views were built by
// hand, or nil where Encode fails.
func encodedView(v any) []byte {
	var b bytes.Buffer
	if json.NewEncoder(&b).Encode(v) != nil {
		return nil
	}
	return b.Bytes()
}

// wireItems returns v with its items' specs and results in wire form,
// as the server keeps them, or ok=false where one is not JSON.
func wireItems(v JobView) (JobView, bool) {
	if v.Items == nil {
		return v, true
	}
	items := make([]Item, len(v.Items))
	for i, it := range v.Items {
		var err error
		if it.Spec, err = wireJSON(it.Spec); err != nil {
			return v, false
		}
		if len(it.Result) > 0 {
			if it.Result, err = wireJSON(it.Result); err != nil {
				return v, false
			}
		}
		items[i] = it
	}
	v.Items = items
	return v, true
}

// checkView requires appendView, given v's items in wire form, to write
// what Encode writes for v as it is.
func checkView(t *testing.T, v JobView) {
	t.Helper()
	want := encodedView(v)
	wv, ok := wireItems(v)
	if !ok {
		if want != nil {
			t.Fatalf("wireJSON rejected an item that encodes: %+v", v.Items)
		}
		return
	}
	got, err := appendView(nil, &wv)
	if err != nil {
		if want != nil {
			t.Fatalf("appendView failed where Encode succeeds: %v", err)
		}
		return
	}
	if got = append(got, '\n'); !bytes.Equal(got, want) {
		t.Fatalf("view bytes differ from Encode's:\n got %s\nwant %s", got, want)
	}
}

// TestViewMatchesEncoder: a view the server writes is byte for byte
// what json.NewEncoder writes for it, for items whose specs and results
// are not compact or carry characters HTML-safe output escapes, item
// errors, progress, nil and empty item lists, and zero and set times.
func TestViewMatchesEncoder(t *testing.T) {
	at := time.Date(2026, 10, 19, 21, 3, 9, 123456789, time.UTC)
	later := at.Add(1500 * time.Millisecond).In(time.FixedZone("X", 5*3600+30*60))
	items := []Item{
		{Spec: json.RawMessage(`{"Workload":"MVT","Gen":{"Scale":0.02}}`), Result: json.RawMessage(`{"Cycles":15179,"PerCUStall":[1,2]}`), CacheHit: true, Done: true},
		{Spec: json.RawMessage(" {\n\t\"a\" : [ 1 , 2.5e-3 , true , null ] } "), Result: json.RawMessage(`{ "html" : "<b> & </b>", "sep" : "a` + "\u2028" + `b` + "\u2029" + `" }`), Done: true},
		{Spec: json.RawMessage(`"\u003c\/tag>"`), Error: "bad spec: <unknown> field \"x\" & \u2028 \x01 \xff", Done: true},
		{Spec: json.RawMessage(`null`)},
		{Spec: json.RawMessage(`{"k":"é\\n\""}`), Result: json.RawMessage(`[]`), Done: true},
	}
	for _, v := range []JobView{
		{ID: "j000001", State: StateQueued, Items: items[:1], Created: at},
		{ID: "127.0.0.1:4000-j000002", State: StateDone, Priority: -3, Items: items, ItemsDone: 4, CacheHits: 1,
			Node: "127.0.0.1:4000", TraceID: "4bf92f3577b34da6a3ce929d0e0e4736", Created: at, Started: &at, Finished: &later},
		{ID: "j3", State: StateFailed, Error: "1 of 5 items failed <&>", Items: items, Recovered: true,
			Progress: &ProgressView{Item: 2, Cycles: 15179, Done: 90, Total: 96, Walks: 7, CyclesPerSecond: 1.25e7, ETASeconds: 0.0004, Updated: later},
			Created:  at, Started: &at},
		{ID: "j4", State: StateCancelled, Items: nil},
		{ID: "j5", State: StateRunning, Items: []Item{}, Progress: &ProgressView{Updated: at}},
		{ID: "id \"quoted\" <x>", State: State("odd\tstate")},
	} {
		checkView(t, v)
	}
}

// FuzzJobView: for arbitrary spec, result and error text, appendView
// over the wire form of the items writes what Encode writes.
func FuzzJobView(f *testing.F) {
	f.Add([]byte(`{"Workload":"MVT"}`), []byte(`{"Cycles":1}`), "", "j000001", true, int64(0))
	f.Add([]byte(" { \"a\" : \"<&>\" } "), []byte("[1, 2.5e3,\n\"\u2028\"]"), "boom <x>", "n-j2", false, int64(1))
	f.Add([]byte(`"\ud800"`), []byte(`{"a":{"b":[[[[[]]]]]}}`), "\xff\x00", "", true, int64(-1))
	f.Add([]byte(`01`), []byte(`{"a":1,}`), "", "j", false, int64(1e18))
	f.Fuzz(func(t *testing.T, spec, result []byte, errText, id string, done bool, nanos int64) {
		at := time.Unix(0, nanos).UTC()
		v := JobView{ID: id, State: StateDone, Error: errText, Created: at,
			Items: []Item{{Spec: spec, Result: result, Error: errText, Done: done, CacheHit: done}}}
		if done {
			v.Finished = &at
		}
		checkView(t, v)
	})
}

// FuzzWireJSON: wireJSON is json.Marshal of a json.RawMessage, and
// returns its input itself whenever that is already the output.
func FuzzWireJSON(f *testing.F) {
	for _, s := range []string{`{"a":[1,-0.5e+3,true,false,null,"x\"\\\/\b\f\n\r\t\u00e9"]}`, ` 1 `, `"<"`,
		"\"\u2028\"", `-`, `1.`, `1e`, `"\u12"`, `[`, `{"a"}`, `nul`, `{}`, `[]`, `""`, "\"\xff\"", strings.Repeat("[", 70) + strings.Repeat("]", 70)} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		got, err := wireJSON(raw)
		want, wantErr := json.Marshal(json.RawMessage(raw))
		if (err != nil) != (wantErr != nil) || !bytes.Equal(got, want) {
			t.Fatalf("wireJSON(%q) = %q, %v; json.Marshal = %q, %v", raw, got, err, want, wantErr)
		}
		if len(raw) > 0 && bytes.Equal(raw, want) && &got[0] != &raw[0] {
			t.Fatalf("wireJSON(%q) copied a value already in wire form", raw)
		}
	})
}

// TestServerViewsMatchEncoder: the 202, GET /v1/jobs/{id} and
// GET /v1/jobs bodies are what Encode writes for the job as submitted
// and as its runner answered, for a spec and a result that are neither
// compact nor HTML-safe, and each carries a Content-Length.
func TestServerViewsMatchEncoder(t *testing.T) {
	spec := " { \"name\" : \"<a & b>\" ,\n \"n\" : [ 1, 2 ] } "
	result := "{ \"out\" : \"x\u2028y\" ,\t\"lt\" : \"<\" }"
	var calls atomic.Int64
	s := newTestServer(t, Options{Runner: func(ctx context.Context, _ json.RawMessage) (json.RawMessage, bool, error) {
		calls.Add(1)
		return json.RawMessage(result), false, nil
	}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// reference is s's view of job id with the item's spec and result
	// as sent and as the runner returned them.
	reference := func(s *Server, id string) JobView {
		v, ok := s.Job(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		v.Items[0].Spec = json.RawMessage(spec)
		if v.Items[0].Done {
			v.Items[0].Result = json.RawMessage(result)
		}
		return v
	}
	read := func(resp *http.Response, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.ContentLength != int64(len(b)) || len(resp.TransferEncoding) > 0 {
			t.Fatalf("%s: Content-Length %d, transfer encoding %v, for %d bytes",
				resp.Request.URL.Path, resp.ContentLength, resp.TransferEncoding, len(b))
		}
		return b
	}

	accepted := read(http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{"spec":`+spec+`}`)))
	var v JobView
	if err := json.Unmarshal(accepted, &v); err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, s, v.ID)
	got := read(http.Get(ts.URL + "/v1/jobs/" + v.ID))
	ref := reference(s, v.ID)
	if want := encodedView(ref); !bytes.Equal(got, want) {
		t.Fatalf("GET /v1/jobs/{id}:\n got %s\nwant %s", got, want)
	}
	if !strings.Contains(string(got), `"result":{"out":"x\u2028y","lt":"\u003c"}`) {
		t.Fatalf("result not compacted and escaped: %s", got)
	}
	got = read(http.Get(ts.URL + "/v1/jobs"))
	if want := encodedView(map[string]any{"jobs": []JobView{ref}}); !bytes.Equal(got, want) {
		t.Fatalf("GET /v1/jobs:\n got %s\nwant %s", got, want)
	}

	// The 202 of a job born done carries its result too.
	fc := &fakeCache{results: map[string]json.RawMessage{}}
	fc.results[`{"name":"\u003ca \u0026 b\u003e","n":[1,2]}`] = json.RawMessage(result)
	hs := newTestServer(t, Options{Runner: s.opts.Runner, Lookup: fc.lookup})
	hts := httptest.NewServer(hs.Handler())
	defer hts.Close()
	accepted = read(http.Post(hts.URL+"/v1/jobs", "application/json", strings.NewReader(`{"spec":`+spec+`}`)))
	if err := json.Unmarshal(accepted, &v); err != nil || v.State != StateDone {
		t.Fatalf("a cached spec's 202: %s, %v", v.State, err)
	}
	if want := encodedView(reference(hs, v.ID)); !bytes.Equal(accepted, want) {
		t.Fatalf("202 of a job born done:\n got %s\nwant %s", accepted, want)
	}
	if calls.Load() != 1 {
		t.Fatalf("runner called %d times, want 1", calls.Load())
	}
}

// TestRunnerResultNotJSONFailsItem: a runner result that is not JSON
// fails its item, since no view could carry it.
func TestRunnerResultNotJSONFailsItem(t *testing.T) {
	s := newTestServer(t, Options{Runner: func(ctx context.Context, _ json.RawMessage) (json.RawMessage, bool, error) {
		return json.RawMessage(`{"cut`), false, nil
	}})
	v, err := s.Submit(SubmitRequest{Spec: json.RawMessage(`{}`)})
	if err != nil {
		t.Fatal(err)
	}
	v = waitTerminal(t, s, v.ID)
	if v.State != StateFailed || v.Items[0].Result != nil || !strings.Contains(v.Items[0].Error, "not JSON") {
		t.Fatalf("job %s, item %+v; want failed with a not-JSON error", v.State, v.Items[0])
	}
}
