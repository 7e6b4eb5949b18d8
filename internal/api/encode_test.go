package api

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http/httptest"
	"testing"

	"repro/internal/serve"
	"repro/internal/xrand"
)

// referenceBody is the spelling writeResponse must reproduce: what
// writeJSON — encoding/json with a two-space indent — writes.
func referenceBody(resp *serve.Response) []byte {
	rec := httptest.NewRecorder()
	writeJSON(rec, resp)
	return rec.Body.Bytes()
}

// edgeFloats sit on every boundary of encoding/json's float format:
// signed zero, both ends of the 'e' ranges, exponents with one, two and
// three digits, the largest and smallest magnitudes, and denormals.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.15, 0.85, 1.0 / 3,
	1e-6, 9.999999999999999e-7, 1e-7, -1e-7, 1.5e-9, 1e-10, 3e-100, 1e-300,
	1e20, 9.999999999999999e20, 1e21, -1e21, 1.2e22, 1e100, 1e300,
	math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	2.2250738585072014e-308, 1e-310, 5e-324 * 12345,
	123456789.125, 1e15 + 0.5, float64(1 << 53), 0.1 + 0.2,
}

func randomFloat(rng *xrand.Rand) float64 {
	switch rng.Intn(5) {
	case 0:
		return edgeFloats[rng.Intn(len(edgeFloats))]
	case 1: // any bit pattern that is a finite number
		for {
			if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
				return f
			}
		}
	case 2: // proximity-score magnitudes, down into the 'e' range
		return rng.Float64() * math.Pow(10, -float64(rng.Intn(12)))
	default:
		return rng.Float64()
	}
}

func randomResponse(rng *xrand.Rand) *serve.Response {
	resp := &serve.Response{
		Snapshot: rng.Intn(300) - 1,
		Measure:  []string{"rwr", "ppr", "topk", "pagerank", "katz", "", "a\"b\\c", "<rwr&>", "mesure é", "bad\xffutf8\x01"}[rng.Intn(10)],
		Damping:  randomFloat(rng),
		CacheHit: rng.Intn(2) == 0,
		Live:     rng.Intn(2) == 0,
		Version:  rng.Uint64() >> uint(rng.Intn(64)),
	}
	switch rng.Intn(4) {
	case 0: // nil Scores
	case 1:
		resp.Scores = []float64{}
	default:
		resp.Scores = make([]float64, 1+rng.Intn(40))
		for i := range resp.Scores {
			resp.Scores[i] = randomFloat(rng)
		}
	}
	switch rng.Intn(3) {
	case 0: // nil Nodes
	case 1:
		resp.Nodes = []int{}
	default:
		resp.Nodes = make([]int, 1+rng.Intn(12))
		for i := range resp.Nodes {
			resp.Nodes[i] = rng.Intn(5000) - 1
		}
	}
	return resp
}

// TestResponseEncodingMatchesEncodingJSON: the hand-written encoder and
// encoding/json agree on every byte of every answer shape, so clients
// (and the benchmark's hot-body identity check) cannot tell which one
// wrote a body.
func TestResponseEncodingMatchesEncodingJSON(t *testing.T) {
	rng := xrand.New(2024)
	responses := []*serve.Response{
		{},
		{Scores: edgeFloats, Measure: "rwr", Damping: 0.85, CacheHit: true},
		{Scores: []float64{}, Nodes: []int{}, Live: true, Version: math.MaxUint64, Snapshot: -1},
	}
	for len(responses) < 2500 {
		responses = append(responses, randomResponse(rng))
	}
	var buf []byte
	for i, resp := range responses {
		var ok bool
		buf, ok = appendResponse(buf[:0], resp)
		if !ok {
			t.Fatalf("response %d: encoder refused a finite response %+v", i, resp)
		}
		if want := referenceBody(resp); !bytes.Equal(buf, want) {
			t.Fatalf("response %d: bodies differ\n got: %q\nwant: %q", i, buf, want)
		}
		var back serve.Response
		if err := json.Unmarshal(buf, &back); err != nil {
			t.Fatalf("response %d: body is not JSON: %v", i, err)
		}
	}
}

// TestResponseEncodingNonFinite: encoding/json refuses NaN and ±Inf;
// writeResponse hands those answers to writeJSON, so the reply (header
// and empty body, as it has always been) is the same — including when
// the pooled buffer already holds half an answer.
func TestResponseEncodingNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, resp := range []*serve.Response{
			{Measure: "rwr", Damping: bad, Scores: []float64{1}},
			{Measure: "rwr", Damping: 0.85, Scores: []float64{0.5, bad, 0.25}},
		} {
			got, want := httptest.NewRecorder(), httptest.NewRecorder()
			writeResponse(got, resp)
			writeJSON(want, resp)
			if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) || got.Code != want.Code ||
				got.Header().Get("Content-Type") != want.Header().Get("Content-Type") {
				t.Errorf("non-finite %v: got %d %q %q, writeJSON %d %q %q", bad,
					got.Code, got.Header().Get("Content-Type"), got.Body.Bytes(),
					want.Code, want.Header().Get("Content-Type"), want.Body.Bytes())
			}
		}
	}
	// The pool must hand the next answer a clean start.
	resp := &serve.Response{Measure: "topk", Nodes: []int{3, 1}, Scores: []float64{0.5, 0.25}}
	rec := httptest.NewRecorder()
	writeResponse(rec, resp)
	if want := referenceBody(resp); !bytes.Equal(rec.Body.Bytes(), want) {
		t.Errorf("after a refused answer: got %q, want %q", rec.Body.Bytes(), want)
	}
}
