// Package cluster implements the matrix-sequence clustering strategies
// of the paper: α-clustering (Algorithm 1), which bounds cluster
// "compactness" by the matrix edit similarity of the bounding matrices
// A∩ and A∪, and the two β-clustering variants (Algorithms 4 and 5)
// that enforce the LUDEM-QC ordering-quality constraint directly.
package cluster

import (
	"repro/internal/lu"
	"repro/internal/order"
	"repro/internal/sparse"
)

// Cluster is a contiguous run [Start, End) of matrix indices in the
// EMS, together with the union pattern sp(A∪) of its members (the
// intersection pattern is tracked during construction but only the
// union participates in the algorithms downstream).
type Cluster struct {
	Start, End int
	Union      *sparse.Pattern
}

// Len returns the number of matrices in the cluster.
func (c Cluster) Len() int { return c.End - c.Start }

// Contains reports whether matrix index i falls inside the cluster.
func (c Cluster) Contains(i int) bool { return i >= c.Start && i < c.End }

// Members returns the matrix indices covered by the cluster, in
// sequence order.
func (c Cluster) Members() []int {
	out := make([]int, 0, c.Len())
	for i := c.Start; i < c.End; i++ {
		out = append(out, i)
	}
	return out
}

// Partition reports whether cs is a contiguous partition of [0, T) —
// the invariant every clustering pass must maintain and the execution
// engine's callback turns rely on (one cluster's turn follows the
// previous cluster's snapshots).
func Partition(cs []Cluster, T int) bool {
	at := 0
	for _, c := range cs {
		if c.Start != at || c.End < c.Start {
			return false
		}
		at = c.End
	}
	return at == T
}

// Covering returns the index of the cluster containing matrix i, or -1
// if no cluster covers it. cs must be sorted by Start (as every
// clustering pass produces); the lookup is a binary search.
func Covering(cs []Cluster, i int) int {
	lo, hi := 0, len(cs)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case i < cs[mid].Start:
			hi = mid
		case i >= cs[mid].End:
			lo = mid + 1
		default:
			return mid
		}
	}
	return -1
}

// Alpha performs α-clustering (Algorithm 1): matrices are appended to
// the current cluster as long as mes(A∩, A∪) ≥ α; when the bound would
// break, a new cluster starts. α = 1 makes every cluster a single
// matrix (unless successive patterns are identical); α = 0 puts the
// whole EMS in one cluster. The rule is the Tracker's, fed every pattern.
func Alpha(patterns []*sparse.Pattern, alpha float64) []Cluster {
	t := NewTracker(alpha)
	if len(patterns) == 0 {
		return nil
	}
	t.Admit(patterns[0])
	var out []Cluster
	for _, p := range patterns[1:] {
		if c := t.Cluster(); !t.Admit(p) {
			out = append(out, c)
		}
	}
	return append(out, t.Cluster())
}

// QCResult couples a cluster with the ordering chosen while the
// quality-constrained clustering was built (β-clustering computes
// orderings as a side effect, so recomputing them downstream would
// waste a Markowitz run).
type QCResult struct {
	Cluster  Cluster
	Ordering sparse.Ordering
	// SSPSizes[k] is |s̃p(A^O)| for member Start+k under Ordering
	// (CINC variant) or the shared upper bound |s̃p(A∪^O∪)| (CLUDE
	// variant, same value for all members).
	SSPSizes []int
}

// A starSizer returns |s̃p(A_i*)| for the i-th pattern — the reference
// sizes of Definition 4, computable without numeric work for symmetric
// matrices via minimum degree (paper §3). Callers that sweep β over the
// same EMS should supply a memoizing sizer (e.g. StarTable) so the
// reference is computed once per matrix, not once per run.
type starSizer func(i int, p *sparse.Pattern) int

// MinDegreeStar is the default starSizer: |s̃p| under MinDegree,
// computed on demand.
func MinDegreeStar(i int, p *sparse.Pattern) int { return order.MinDegree(p).SSPSize }

// StarTable wraps precomputed reference sizes as a starSizer.
func StarTable(sizes []int) func(i int, p *sparse.Pattern) int {
	return func(i int, _ *sparse.Pattern) int { return sizes[i] }
}

// BetaCINC performs β-clustering in the CINC flavour (Algorithm 4):
// the cluster ordering is the Markowitz/MinDegree ordering of its
// first matrix, and a matrix Ai joins only if
// |s̃p(Ai^O)| − |s̃p(Ai*)| ≤ β·|s̃p(Ai*)|.
func BetaCINC(patterns []*sparse.Pattern, beta float64, star starSizer) []QCResult {
	if beta < 0 {
		panic("cluster: beta must be non-negative")
	}
	if star == nil {
		star = MinDegreeStar
	}
	if len(patterns) == 0 {
		return nil
	}
	var out []QCResult
	begin := func(i int) QCResult {
		res := order.MinDegree(patterns[i])
		return QCResult{
			Cluster:  Cluster{Start: i, End: i + 1, Union: patterns[i]},
			Ordering: res.Ordering,
			SSPSizes: []int{res.SSPSize},
		}
	}
	cur := begin(0)
	for i := 1; i < len(patterns); i++ {
		starSz := star(i, patterns[i])
		sz := lu.SymbolicSize(patterns[i], cur.Ordering)
		if float64(sz-starSz) <= beta*float64(starSz) {
			cur.Cluster.End = i + 1
			cur.Cluster.Union = cur.Cluster.Union.Union(patterns[i])
			cur.SSPSizes = append(cur.SSPSizes, sz)
			continue
		}
		out = append(out, cur)
		cur = begin(i)
	}
	return append(out, cur)
}

// BetaCLUDE performs β-clustering in the CLUDE flavour (Algorithm 5):
// the cluster ordering is the MinDegree ordering O∪ of the running
// union A∪, and the shortcut constraint |s̃p(A∪^O∪)| − |s̃p(Al*)| ≤
// β·|s̃p(Al*)| is checked for every member Al (it implies the true
// per-member constraint by Property 1 + Lemma 1). Because the shortcut
// is hardest for the member with the smallest reference size, tracking
// the running minimum makes each admission check O(1) beyond the
// symbolic size.
//
// One engineering deviation from the literal pseudo-code, which
// re-derives O∪ on every admission: the previous cluster ordering is
// kept as long as it still satisfies the constraint on the grown union
// (one symbolic decomposition to check), and MinDegree is re-run on
// the union only when the kept ordering fails. The enforced constraint
// is identical — every admitted matrix provably satisfies its quality
// bound — but a β-sweep no longer pays a full ordering per matrix.
func BetaCLUDE(patterns []*sparse.Pattern, beta float64, star starSizer) []QCResult {
	if beta < 0 {
		panic("cluster: beta must be non-negative")
	}
	if star == nil {
		star = MinDegreeStar
	}
	if len(patterns) == 0 {
		return nil
	}
	var out []QCResult
	start := 0
	union := patterns[0]
	ordering := order.MinDegree(patterns[0])
	unionSize := ordering.SSPSize // |s̃p(A∪^O)| for the current ordering
	minStar := star(0, patterns[0])

	withinBound := func(size, starSz int) bool {
		return float64(size-starSz) <= beta*float64(starSz)
	}

	for i := 1; i < len(patterns); i++ {
		candUnion := union.Union(patterns[i])
		candMinStar := minStar
		if s := star(i, patterns[i]); s < candMinStar {
			candMinStar = s
		}
		// Try the kept ordering first.
		size := lu.SymbolicSize(candUnion, ordering.Ordering)
		if withinBound(size, candMinStar) {
			union, unionSize, minStar = candUnion, size, candMinStar
			continue
		}
		// Re-derive O∪ from the grown union (Algorithm 5 line 4).
		cand := order.MinDegree(candUnion)
		if withinBound(cand.SSPSize, candMinStar) {
			union, ordering, unionSize, minStar = candUnion, cand, cand.SSPSize, candMinStar
			continue
		}
		out = append(out, qcFromUnion(start, i, union, ordering.Ordering, unionSize))
		start = i
		union = patterns[i]
		ordering = order.MinDegree(patterns[i])
		unionSize = ordering.SSPSize
		minStar = star(i, patterns[i])
	}
	return append(out, qcFromUnion(start, len(patterns), union, ordering.Ordering, unionSize))
}

func qcFromUnion(start, end int, union *sparse.Pattern, o sparse.Ordering, size int) QCResult {
	sizes := make([]int, end-start)
	for k := range sizes {
		sizes[k] = size
	}
	return QCResult{
		Cluster:  Cluster{Start: start, End: end, Union: union},
		Ordering: o,
		SSPSizes: sizes,
	}
}
