package cluster

import (
	"testing"

	"repro/internal/sparse"
	"repro/internal/xrand"
)

// randomPatterns builds a drifting pattern sequence: each step flips a
// few positions of its predecessor, so runs of similar patterns occur.
func randomPatterns(rng *xrand.Rand, n, T, flips int) []*sparse.Pattern {
	coords := map[sparse.Coord]struct{}{}
	for i := 0; i < n; i++ {
		coords[sparse.Coord{Row: i, Col: i}] = struct{}{}
	}
	for k := 0; k < 4*n; k++ {
		coords[sparse.Coord{Row: rng.Intn(n), Col: rng.Intn(n)}] = struct{}{}
	}
	mk := func() *sparse.Pattern {
		cs := make([]sparse.Coord, 0, len(coords))
		for c := range coords {
			cs = append(cs, c)
		}
		return sparse.NewPattern(n, cs)
	}
	out := []*sparse.Pattern{mk()}
	for t := 1; t < T; t++ {
		for f := 0; f < flips; f++ {
			c := sparse.Coord{Row: rng.Intn(n), Col: rng.Intn(n)}
			if c.Row == c.Col {
				continue // keep the diagonal
			}
			if _, ok := coords[c]; ok {
				delete(coords, c)
			} else {
				coords[c] = struct{}{}
			}
		}
		out = append(out, mk())
	}
	return out
}

// alphaReference is Algorithm 1 as the paper states it: rebuild the
// intersection and union patterns of the would-be cluster at every step
// and admit while their edit similarity stays at least α.
func alphaReference(patterns []*sparse.Pattern, alpha float64) []Cluster {
	var out []Cluster
	start := 0
	inter, union := patterns[0], patterns[0]
	for i := 1; i < len(patterns); i++ {
		ni := inter.Intersect(patterns[i])
		nu := union.Union(patterns[i])
		if sparse.MES(ni, nu) >= alpha {
			inter, union = ni, nu
			continue
		}
		out = append(out, Cluster{Start: start, End: i, Union: union})
		start = i
		inter, union = patterns[i], patterns[i]
	}
	return append(out, Cluster{Start: start, End: len(patterns), Union: union})
}

// TestTrackerMatchesAlpha is the incremental-maintenance property: the
// online tracker fed one pattern at a time, and Alpha built on it,
// reproduce the literal Algorithm 1 exactly — boundaries and unions.
func TestTrackerMatchesAlpha(t *testing.T) {
	rng := xrand.New(99)
	for _, alpha := range []float64{0, 0.5, 0.9, 0.97, 1} {
		pats := randomPatterns(rng, 40, 30, 6)
		want := alphaReference(pats, alpha)
		if got := Alpha(pats, alpha); !sameClusters(got, want) {
			t.Fatalf("alpha=%v: Alpha differs from the reference", alpha)
		}

		// Feed the tracker one pattern at a time, recording each cluster
		// the moment its successor opens.
		tr := NewTracker(alpha)
		var got []Cluster
		var prev Cluster
		for i, p := range pats {
			extended := tr.Admit(p)
			if i > 0 && !extended {
				got = append(got, prev)
			}
			prev = tr.Cluster()
		}
		got = append(got, prev)

		if len(got) != len(want) {
			t.Fatalf("alpha=%v: %d clusters, want %d", alpha, len(got), len(want))
		}
		for k := range want {
			if got[k].Start != want[k].Start || got[k].End != want[k].End {
				t.Fatalf("alpha=%v cluster %d: [%d,%d) want [%d,%d)",
					alpha, k, got[k].Start, got[k].End, want[k].Start, want[k].End)
			}
			if !got[k].Union.Equal(want[k].Union) {
				t.Fatalf("alpha=%v cluster %d: union differs from Alpha's", alpha, k)
			}
		}
		if tr.Clusters() != len(want) {
			t.Fatalf("alpha=%v: Clusters()=%d, want %d", alpha, tr.Clusters(), len(want))
		}
	}
}

func sameClusters(a, b []Cluster) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if a[k].Start != b[k].Start || a[k].End != b[k].End || !a[k].Union.Equal(b[k].Union) {
			return false
		}
	}
	return true
}

func TestTrackerEdges(t *testing.T) {
	tr := NewTracker(0.9)
	if tr.Union() != nil {
		t.Fatal("fresh tracker has a union")
	}
	p := sparse.NewPattern(3, []sparse.Coord{{Row: 0, Col: 0}, {Row: 1, Col: 1}, {Row: 2, Col: 2}})
	if tr.Admit(p) {
		t.Fatal("first pattern reported as extension")
	}
	if !tr.Admit(p) {
		t.Fatal("identical pattern must extend (mes=1)")
	}
	if c := tr.Cluster(); c.Start != 0 || c.End != 2 || tr.Len() != 2 {
		t.Fatalf("cluster %+v after two identical admissions", c)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewTracker accepted alpha out of range")
		}
	}()
	NewTracker(1.5)
}

// patternDelta lists the positions q holds and p does not (added) and
// the other way round (removed), in column-major order — the order a
// stream that diffs matrix columns produces, and not the one the
// patterns are stored in.
func patternDelta(p, q *sparse.Pattern) (added, removed []sparse.Coord) {
	for j := 0; j < p.N(); j++ {
		for i := 0; i < p.N(); i++ {
			switch in, out := q.Has(i, j), p.Has(i, j); {
			case in && !out:
				added = append(added, sparse.Coord{Row: i, Col: j})
			case out && !in:
				removed = append(removed, sparse.Coord{Row: i, Col: j})
			}
		}
	}
	return added, removed
}

func sameTrackerState(a, b *TrackerState) bool {
	return a.Alpha == b.Alpha && a.Start == b.Start && a.End == b.End && a.Clusters == b.Clusters &&
		a.Inter.Equal(b.Inter) && a.Union.Equal(b.Union)
}

// TestAdmitDeltaMatchesAdmit is delta admission's property: told only
// which positions each member added and removed, a tracker takes the
// decisions and holds the bounding patterns of one shown every full
// pattern — across cluster restarts, across State/RestoreTracker round
// trips in mid-cluster, and after an admission is taken back.
func TestAdmitDeltaMatchesAdmit(t *testing.T) {
	rng := xrand.New(123)
	for _, alpha := range []float64{0, 0.5, 0.9, 0.97, 1} {
		for _, flips := range []int{0, 2, 9} {
			pats := randomPatterns(rng, 30, 60, flips)
			full, delta := NewTracker(alpha), NewTracker(alpha)
			full.Admit(pats[0])
			delta.Admit(pats[0])
			for i := 1; i < len(pats); i++ {
				added, removed := patternDelta(pats[i-1], pats[i])
				want := full.Admit(pats[i])

				if i%5 == 2 {
					// A failed batch: admit, then take it back.
					saved := delta.State()
					delta.AdmitDelta(added, removed, func() *sparse.Pattern { return pats[i] })
					delta.Restore(saved)
				}
				if i%7 == 3 {
					var err error
					if delta, err = RestoreTracker(delta.State()); err != nil {
						t.Fatal(err)
					}
				}
				materialized := false
				got := delta.AdmitDelta(added, removed, func() *sparse.Pattern {
					materialized = true
					return pats[i]
				})
				if got != want {
					t.Fatalf("alpha=%v flips=%d member %d: delta admission says %v, full says %v", alpha, flips, i, got, want)
				}
				if materialized == got {
					t.Fatalf("alpha=%v flips=%d member %d: admitted=%v but member materialized=%v", alpha, flips, i, got, materialized)
				}
				if !sameTrackerState(delta.State(), full.State()) {
					t.Fatalf("alpha=%v flips=%d member %d: tracker states diverge", alpha, flips, i)
				}
			}
			if alpha == 0.9 && flips == 9 && full.Clusters() < 2 {
				t.Fatalf("test stream never restarted a cluster (%d)", full.Clusters())
			}
		}
	}
}
