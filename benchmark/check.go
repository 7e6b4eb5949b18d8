package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
)

// answer is the part of a /v1/query response body the checks read.
type answer struct {
	Snapshot int       `json:"snapshot"`
	Measure  string    `json:"measure"`
	Damping  float64   `json:"damping"`
	Scores   []float64 `json:"scores"`
	Nodes    []int     `json:"nodes"`
	CacheHit bool      `json:"cache_hit"`
	Live     bool      `json:"live"`
	Version  uint64    `json:"version"`
}

func parseAnswer(body []byte) (*answer, error) {
	var a answer
	if err := json.Unmarshal(body, &a); err != nil {
		return nil, fmt.Errorf("answer is not JSON: %w", err)
	}
	return &a, nil
}

// roundoff is the slack the vector checks give floating-point
// substitution: a score may undershoot its exact bound by this much.
const roundoff = 1e-12

// checkVector verifies an rwr/ppr score vector against what the linear
// system guarantees for any graph: length n; finite and non-negative
// entries; total mass in (0, 1] (dangling pages leak mass, so it is
// not exactly 1); and every seed keeps at least its restart mass
// (1−d)/|seeds|.
func checkVector(a *answer, n int, seeds []int) error {
	if len(a.Scores) != n {
		return fmt.Errorf("%s: %d scores, want n=%d", a.Measure, len(a.Scores), n)
	}
	sum := 0.0
	for i, x := range a.Scores {
		if !finite(x) || x < -roundoff {
			return fmt.Errorf("%s: score[%d] = %v", a.Measure, i, x)
		}
		sum += x
	}
	if sum <= 0 || sum > 1+1e-9 {
		return fmt.Errorf("%s: scores sum to %v, want (0, 1]", a.Measure, sum)
	}
	floor := (1-a.Damping)/float64(len(seeds)) - roundoff
	for _, s := range seeds {
		if a.Scores[s] < floor {
			return fmt.Errorf("%s: seed %d scores %v, below its restart mass %v", a.Measure, s, a.Scores[s], floor)
		}
	}
	return nil
}

// topKOf ranks a score vector the way the server documents: by score
// descending, ties by ascending node id.
func topKOf(scores []float64, k int) []int {
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if scores[idx[a]] != scores[idx[b]] {
			return scores[idx[a]] > scores[idx[b]]
		}
		return idx[a] < idx[b]
	})
	return idx[:min(k, len(idx))]
}

// checkTopK verifies a topk answer on its own: k distinct nodes in
// range, scores aligned with them and non-increasing.
func checkTopK(a *answer, n, k int) error {
	if len(a.Nodes) != min(k, n) || len(a.Scores) != len(a.Nodes) {
		return fmt.Errorf("topk: %d nodes and %d scores, want %d", len(a.Nodes), len(a.Scores), min(k, n))
	}
	seen := make(map[int]bool, len(a.Nodes))
	for i, v := range a.Nodes {
		if v < 0 || v >= n || seen[v] {
			return fmt.Errorf("topk: node[%d] = %d out of range or repeated", i, v)
		}
		seen[v] = true
		if !finite(a.Scores[i]) || (i > 0 && a.Scores[i] > a.Scores[i-1]) {
			return fmt.Errorf("topk: score[%d] = %v breaks the descending order", i, a.Scores[i])
		}
	}
	return nil
}

// checkTopKAgainst verifies that a topk answer is exactly the top-k of
// the full rwr vector for the same source and snapshot, scores
// included: both come from one substitution on one set of factors.
func checkTopKAgainst(top, full *answer) error {
	want := topKOf(full.Scores, len(top.Nodes))
	for i, v := range want {
		if top.Nodes[i] != v || top.Scores[i] != full.Scores[v] {
			return fmt.Errorf("topk[%d] = node %d (%v), rwr vector ranks node %d (%v) there",
				i, top.Nodes[i], top.Scores[i], v, full.Scores[v])
		}
	}
	return nil
}

// cacheHitTrue and cacheHitFalse are how the server's indented JSON
// spells the one field of an answer that legitimately differs between
// two fetches of the same key.
var (
	cacheHitTrue  = []byte(`"cache_hit": true`)
	cacheHitFalse = []byte(`"cache_hit": false`)
)

// sameAnswerBytes reports whether two response bodies are byte-identical
// once the cache_hit flag is set aside: a restarted or cold server
// computes what a warm one remembers.
func sameAnswerBytes(a, b []byte) bool {
	return bytes.Equal(bytes.Replace(a, cacheHitTrue, cacheHitFalse, 1),
		bytes.Replace(b, cacheHitTrue, cacheHitFalse, 1))
}
