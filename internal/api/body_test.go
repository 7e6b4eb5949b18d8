package api

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/serve"
)

// Tests of the POST bodies of /v1/query and /v1/update: exactly one
// JSON value, at most maxBodyBytes. The GET path rejects a repeated
// parameter because a second value must never be silently dropped; a
// body must not drop one either.

// Bodies with a second value after the first: a parser that stops at
// the first value answers source 1 and queues one event of two, the
// out-of-range one dropped unseen.
const (
	trailingQuery  = `{"measure":"rwr","source":1}{"source":5} garbage`
	trailingUpdate = `{"events":[{"from":1,"to":2}]}{"events":[{"from":-7,"to":2}]}`
)

// oversize pads a valid body with whitespace to one byte past the bound.
func oversize(body string) string {
	return body + strings.Repeat(" ", maxBodyBytes+1-len(body))
}

// post sends body to path and decodes the JSON response.
func post(t *testing.T, url, body string) (int, map[string]interface{}) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("POST %s: non-JSON response: %v", url, err)
	}
	return resp.StatusCode, out
}

// TestPostBodiesRejectTrailingData: anything but whitespace after the
// body's value is a 400 in the envelope, and nothing of such an update
// is queued.
func TestPostBodiesRejectTrailingData(t *testing.T) {
	srv, stream, done := liveServer(t)
	defer done()

	for _, tc := range []struct{ path, body string }{
		{"/v1/query", trailingQuery},
		{"/v1/query", `{"measure":"rwr","source":1} 7`},
		{"/v1/update", trailingUpdate},
		{"/v1/update", `{"events":[{"from":1,"to":2}]},`},
	} {
		status, out := post(t, srv.URL+tc.path, tc.body)
		if status != http.StatusBadRequest {
			t.Errorf("%s %q: status %d, want 400", tc.path, tc.body, status)
			continue
		}
		if code, _ := envelope(t, out); code != "bad_request" {
			t.Errorf("%s %q: envelope code %q, want bad_request", tc.path, tc.body, code)
		}
	}
	if v := stream.Version(); v != 0 {
		t.Fatalf("stream at version %d after rejected updates, want 0", v)
	}

	// Trailing whitespace is not data.
	if status, out := post(t, srv.URL+"/v1/query", "{\"measure\":\"rwr\",\"source\":1}\n\t "); status != http.StatusOK {
		t.Fatalf("query with trailing whitespace: status %d (%v)", status, out)
	}
	if status, out := post(t, srv.URL+"/v1/update?sync=1", `{"events":[{"from":1,"to":3}]}`+"\n"); status != http.StatusOK || out["queued"] != 1.0 {
		t.Fatalf("update with trailing newline: status %d (%v)", status, out)
	}
}

// TestPostBodiesRejectOversize: a body one byte past maxBodyBytes is a
// 413 in the envelope; one at the bound is read whole.
func TestPostBodiesRejectOversize(t *testing.T) {
	srv, stream, done := liveServer(t)
	defer done()

	for _, tc := range []struct{ path, body string }{
		{"/v1/query", `{"measure":"rwr","source":1}`},
		{"/v1/update?sync=1", `{"events":[{"from":1,"to":4}]}`},
	} {
		status, out := post(t, srv.URL+tc.path, oversize(tc.body))
		if status != http.StatusRequestEntityTooLarge {
			t.Errorf("%s past the bound: status %d, want 413", tc.path, status)
			continue
		}
		if code, _ := envelope(t, out); code != "payload_too_large" {
			t.Errorf("%s past the bound: envelope code %q, want payload_too_large", tc.path, code)
		}
	}
	if v := stream.Version(); v != 0 {
		t.Fatalf("stream at version %d after an oversize update, want 0", v)
	}

	for _, tc := range []struct{ path, body string }{
		{"/v1/query", `{"measure":"rwr","source":1}`},
		{"/v1/update?sync=1", `{"events":[{"from":1,"to":4}]}`},
	} {
		atBound := oversize(tc.body)[:maxBodyBytes]
		if status, out := post(t, srv.URL+tc.path, atBound); status != http.StatusOK {
			t.Errorf("%s at the bound: status %d (%v), want 200", tc.path, status, out)
		}
	}
}

// FuzzParseBodies feeds every input to both POST parsers: neither may
// panic, an accepted update holds only events with both endpoints in
// [0, n) and a known op, and an accepted query re-marshals to JSON that
// parses back to the same query; a body past maxBodyBytes is rejected
// by both.
func FuzzParseBodies(f *testing.F) {
	for _, seed := range []string{
		`{"measure":"rwr","source":1}`,
		`{"measure":"topk","source":2,"k":3,"snapshot":-1}`,
		`{"measure":"ppr","sources":[1,2,2],"damping":0.85}`,
		`{"measure":"pagerank","sources":[]}`,
		`{"events":[{"from":0,"to":5,"op":"insert"},{"from":3,"to":1,"op":"-"}]}`,
		`{"events":[{"from":1,"to":2,"op":"~"}]}`,
		`{"events":[{"from":6,"to":0}]}`,
		trailingQuery,
		trailingUpdate,
		oversize(`{"events":[{"from":1,"to":4}]}`),
	} {
		f.Add([]byte(seed))
	}
	const n = 6
	parse := func(body []byte) (*http.Request, http.ResponseWriter) {
		return httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body)), httptest.NewRecorder()
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		r, w := parse(body)
		events, err := parseUpdate(w, r, n)
		if err == nil && len(body) > maxBodyBytes {
			t.Fatalf("accepted an update body of %d bytes, past the bound", len(body))
		}
		if err == nil {
			if len(events) == 0 {
				t.Fatal("accepted an empty update")
			}
			for i, ev := range events {
				if ev.From < 0 || ev.From >= n || ev.To < 0 || ev.To >= n {
					t.Fatalf("accepted event %d with endpoint (%d,%d) outside [0,%d)", i, ev.From, ev.To, n)
				}
				if ev.Op != graph.EdgeInsert && ev.Op != graph.EdgeDelete && ev.Op != graph.EdgeUpdate {
					t.Fatalf("accepted event %d with op %d", i, ev.Op)
				}
			}
		}

		r, w = parse(body)
		q, err := parseQuery(w, r)
		if err != nil {
			return
		}
		if len(body) > maxBodyBytes {
			t.Fatalf("accepted a query body of %d bytes, past the bound", len(body))
		}
		again, err := json.Marshal(q)
		if err != nil {
			t.Fatalf("accepted query %+v does not marshal: %v", q, err)
		}
		r, w = parse(again)
		back, err := parseQuery(w, r)
		if err != nil {
			t.Fatalf("re-marshalled query %s rejected: %v", again, err)
		}
		if !sameQuery(q, back) {
			t.Fatalf("query %+v came back as %+v through %s", q, back, again)
		}
	})
}

// sameQuery compares two queries field by field; an empty and a nil
// seed set are the same set (omitempty drops the first on the wire).
func sameQuery(a, b serve.Query) bool {
	return a.Snapshot == b.Snapshot && a.Measure == b.Measure && a.Source == b.Source &&
		slices.Equal(a.Sources, b.Sources) && a.K == b.K && a.Damping == b.Damping
}
