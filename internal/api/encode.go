package api

import (
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/serve"
)

// A query answer is the one body this server writes thousands of times
// a second, and for rwr/ppr/pagerank it is n floats long: spelling it
// through reflection-based encoding/json with SetIndent cost a cached
// answer three hundred times what serve spent finding it. writeResponse
// spells the same bytes by hand into a pooled buffer. The spelling is
// pinned, not redesigned: field order, two-space indent, omitted empty
// nodes / false live, null for a nil score vector, encoding/json's float
// format and string escaper, and the trailing newline are exactly what
// writeJSON(w, resp) produces (TestResponseEncodingMatchesEncodingJSON).

// responseBuffers recycles encode buffers; they settle at the size of
// the largest answer (a few tens of kilobytes).
var responseBuffers = sync.Pool{New: func() any { return new([]byte) }}

// writeResponse writes resp as writeJSON would, byte for byte. A
// non-finite score — which encoding/json refuses — is handed to
// writeJSON itself, so that case behaves as it always has.
//
// A cache hit is encoded once per cache entry: the first hit of a key
// leaves its bytes on the entry and every later hit writes them as they
// are — no float is formatted and the score vector is not read. Misses
// and coalesced answers (cache_hit: false) are never stored, so a
// workload that never repeats a question holds no bodies.
func writeResponse(w http.ResponseWriter, resp *serve.Response) {
	if body := resp.HitBody(); body != nil {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(body) // a failed write means the client left; nothing to report to
		return
	}
	bp := responseBuffers.Get().(*[]byte)
	b, ok := appendResponse((*bp)[:0], resp)
	if ok {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(b)
		resp.StoreHitBody(b)
	}
	*bp = b
	responseBuffers.Put(bp)
	if !ok {
		writeJSON(w, resp)
	}
}

// appendResponse appends resp's indented JSON encoding and a newline to
// b. It reports false, with b in an unspecified state, when a float is
// not finite.
func appendResponse(b []byte, resp *serve.Response) ([]byte, bool) {
	b = append(b, "{\n  \"snapshot\": "...)
	b = strconv.AppendInt(b, int64(resp.Snapshot), 10)
	b = append(b, ",\n  \"measure\": "...)
	b = appendJSONString(b, resp.Measure)
	b = append(b, ",\n  \"damping\": "...)
	b, ok := appendJSONFloat(b, resp.Damping)
	if !ok {
		return b, false
	}
	if len(resp.Nodes) > 0 {
		b = append(b, ",\n  \"nodes\": ["...)
		for i, v := range resp.Nodes {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, "\n    "...)
			b = strconv.AppendInt(b, int64(v), 10)
		}
		b = append(b, "\n  ]"...)
	}
	b = append(b, ",\n  \"scores\": "...)
	switch {
	case resp.Scores == nil:
		b = append(b, "null"...)
	case len(resp.Scores) == 0:
		b = append(b, "[]"...)
	default:
		b = append(b, '[')
		for i, v := range resp.Scores {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, "\n    "...)
			if b, ok = appendJSONFloat(b, v); !ok {
				return b, false
			}
		}
		b = append(b, "\n  ]"...)
	}
	b = append(b, ",\n  \"cache_hit\": "...)
	b = strconv.AppendBool(b, resp.CacheHit)
	if resp.Live {
		b = append(b, ",\n  \"live\": true"...)
	}
	b = append(b, ",\n  \"version\": "...)
	b = strconv.AppendUint(b, resp.Version, 10)
	return append(b, "\n}\n"...), true
}

// appendJSONFloat is encoding/json's float64 encoder: ES6 number
// formatting — 'e' notation exactly when |f| < 1e-6 or |f| >= 1e21,
// with a two-digit negative exponent's leading zero dropped — and no
// encoding for NaN and the infinities.
func appendJSONFloat(b []byte, f float64) ([]byte, bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// clean up e-09 to e-9
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, true
}

// appendJSONString quotes s through encoding/json's own escaper (HTML
// escaping on, as an Encoder defaults to). Measure names are a handful
// of bytes, so the detour through Marshal costs nothing that matters.
func appendJSONString(b []byte, s string) []byte {
	q, _ := json.Marshal(s) // cannot fail on a string
	return append(b, q...)
}
