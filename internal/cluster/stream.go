package cluster

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/sparse"
)

// Tracker maintains α-cluster membership incrementally, one pattern at
// a time: the one implementation of Algorithm 1's admission rule. Alpha
// feeds it a complete pattern sequence; the batch engine and the stream
// feed it each matrix as what changed from its predecessor, and it
// answers whether the newest matrix extends the current cluster or opens
// a new one.
//
// The admission rule is exactly Algorithm 1's: a pattern joins while
// mes(A∩, A∪) ≥ α over the would-be bounding patterns. The stream_test
// properties pin it to the literal pass over whole patterns, boundaries
// and unions verbatim, which is what lets the streaming engine make
// per-batch decisions without ever re-clustering the history.
//
// A live engine knows each member as the previous one plus a few changed
// positions; AdmitDelta takes the decision from those alone.
type Tracker struct {
	alpha        float64
	start, end   int // current cluster [start, end) in admission order
	inter, union *sparse.Pattern
	clusters     int
}

// NewTracker returns an empty tracker with similarity threshold alpha.
func NewTracker(alpha float64) *Tracker {
	if alpha < 0 || alpha > 1 {
		panic(fmt.Sprintf("cluster: alpha %v outside [0,1]", alpha))
	}
	return &Tracker{alpha: alpha}
}

// Admit feeds the next pattern and reports whether it extended the
// current cluster. The first pattern (and every pattern whose admission
// would break the α bound) starts a new cluster and returns false.
func (t *Tracker) Admit(p *sparse.Pattern) bool {
	if t.union == nil {
		t.open(p)
		return false
	}
	ni := t.inter.Intersect(p)
	nu := t.union.Union(p)
	if sparse.MES(ni, nu) >= t.alpha {
		t.inter, t.union = ni, nu
		t.end++
		return true
	}
	t.open(p)
	return false
}

// open starts a new cluster whose only member so far is p.
func (t *Tracker) open(p *sparse.Pattern) {
	t.start, t.end = t.end, t.end+1
	t.inter, t.union = p, p
	t.clusters++
}

// AdmitDelta is Admit for the pattern p that differs from the previously
// admitted one by the positions added (none of which it held) and
// removed (all of which it held), in any order: same decision, same
// bounding patterns, for work in the size of the change. Since the
// previous member lies between the bounds, A∩ ∩ p = A∩ ∖ removed and
// A∪ ∪ p = A∪ ∪ added; a bound is rebuilt only when it really moves.
// member materializes p and is called only when p opens a new cluster.
// There must have been a first Admit.
func (t *Tracker) AdmitDelta(added, removed []sparse.Coord, member func() *sparse.Pattern) bool {
	var grow, shrink []sparse.Coord
	for _, c := range added {
		if !t.union.Has(c.Row, c.Col) {
			grow = append(grow, c)
		}
	}
	for _, c := range removed {
		if t.inter.Has(c.Row, c.Col) {
			shrink = append(shrink, c)
		}
	}
	// A∩ ⊆ A∪, so their common size is |A∩|.
	ni, nu := t.inter.Size()-len(shrink), t.union.Size()+len(grow)
	if sparse.MESOfSizes(ni, ni, nu) < t.alpha {
		t.open(member())
		return false
	}
	if len(shrink) > 0 {
		t.inter = t.inter.Without(rowMajor(shrink))
	}
	if len(grow) > 0 {
		t.union = t.union.With(rowMajor(grow))
	}
	t.end++
	return true
}

func rowMajor(cs []sparse.Coord) []sparse.Coord {
	slices.SortFunc(cs, func(a, b sparse.Coord) int {
		return cmp.Or(cmp.Compare(a.Row, b.Row), cmp.Compare(a.Col, b.Col))
	})
	return cs
}

// Cluster returns the current cluster's [start, end) admission-index
// range and union pattern. It panics before the first Admit.
func (t *Tracker) Cluster() Cluster {
	if t.union == nil {
		panic("cluster: Tracker.Cluster before first Admit")
	}
	return Cluster{Start: t.start, End: t.end, Union: t.union}
}

// Union returns the current cluster's union pattern sp(A∪) (nil before
// the first Admit).
func (t *Tracker) Union() *sparse.Pattern { return t.union }

// Len returns the current cluster's member count.
func (t *Tracker) Len() int { return t.end - t.start }

// Clusters returns how many clusters have been opened so far.
func (t *Tracker) Clusters() int { return t.clusters }

// TrackerState is the complete serializable state of a Tracker. The
// patterns are immutable and may be shared with a live tracker: Admit
// replaces them, never mutates them, so an exported state stays valid
// while the tracker advances.
type TrackerState struct {
	Alpha      float64
	Start, End int
	Clusters   int
	// Inter and Union are the current cluster's bounding patterns; both
	// nil before the first Admit.
	Inter, Union *sparse.Pattern
}

// State exports the tracker for persistence.
func (t *Tracker) State() *TrackerState {
	return &TrackerState{
		Alpha: t.alpha,
		Start: t.start, End: t.end,
		Clusters: t.clusters,
		Inter:    t.inter, Union: t.union,
	}
}

// Restore puts the tracker back to an exported state of its own — how a
// caller takes back an admission whose batch then failed.
func (t *Tracker) Restore(st *TrackerState) {
	t.start, t.end, t.clusters = st.Start, st.End, st.Clusters
	t.inter, t.union = st.Inter, st.Union
}

// RestoreTracker rebuilds a tracker from an exported state. Feeding the
// restored tracker the same future patterns as the original yields
// identical admission decisions.
func RestoreTracker(st *TrackerState) (*Tracker, error) {
	if st.Alpha < 0 || st.Alpha > 1 {
		return nil, fmt.Errorf("cluster: alpha %v outside [0,1]", st.Alpha)
	}
	if (st.Inter == nil) != (st.Union == nil) {
		return nil, fmt.Errorf("cluster: inconsistent tracker state (inter/union presence differs)")
	}
	if st.Start < 0 || st.End < st.Start || st.Clusters < 0 {
		return nil, fmt.Errorf("cluster: implausible tracker counters start=%d end=%d clusters=%d", st.Start, st.End, st.Clusters)
	}
	t := &Tracker{alpha: st.Alpha}
	t.Restore(st)
	return t, nil
}
