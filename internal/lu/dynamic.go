package lu

import (
	"math"

	"repro/internal/sparse"
)

// ListNode is one adjacency-list cell of a DynamicFactors structure
// (compare Figure 4 of the paper). Next is an index into the shared
// node pool, or -1 at the end of a list.
type ListNode struct {
	Idx  int // row (for L columns) or column (for U rows)
	Val  float64
	Next int
}

// DynamicFactors stores A = L·D·U in sorted singly-linked adjacency
// lists: one list per L column (rows ascending) and one per U row
// (columns ascending). This is the traditional container for
// incremental LU maintenance (INC/CINC in the paper): when an update
// introduces fill, nodes must be spliced into lists, and the paper
// profiles this structural maintenance at about 70% of Bennett's
// running time. With the same Bennett kernel on both containers the
// reproduction reads about 65 % on directed data (the tblBennett
// experiment) and about 58 % on symmetric data, where both take the
// symmetric cross path (docs/ALGORITHMS.md).
//
// The structure counts its restructuring work (node insertions and
// list scan steps) so benchmarks can separate structural cost from
// numerical cost.
type DynamicFactors struct {
	n     int
	Nodes []ListNode
	LHead []int // head node of L column j, -1 if empty
	UHead []int // head node of U row i, -1 if empty
	D     []float64

	lnnz, unnz int

	// mirror caches Mirrored, a pure function of the lists; every writer
	// keeps it equal to that function.
	mirror bool

	// Profiling counters.
	Inserts   int // nodes spliced in after construction
	ScanSteps int // list cells visited during updates
}

// NewDynamicFactors converts freshly factorized StaticFactors into the
// linked-list representation. (A full factorization is always computed
// into a static container first; the dynamic container exists to model
// the incremental-update path.)
func NewDynamicFactors(f *StaticFactors) *DynamicFactors {
	n := f.Dim()
	d := &DynamicFactors{
		n:     n,
		LHead: make([]int, n),
		UHead: make([]int, n),
		D:     make([]float64, n),
	}
	copy(d.D, f.D)
	// The lists hold the static container's entries, explicit zeros
	// included, so they mirror each other exactly when it does.
	d.mirror = f.Mirrored()
	for i := range d.LHead {
		d.LHead[i] = -1
		d.UHead[i] = -1
	}
	d.Nodes = make([]ListNode, 0, len(f.LVal)+len(f.UVal))
	// Build each L column list in reverse so heads end up sorted.
	for j := 0; j < n; j++ {
		lo, hi := f.LColPtr[j], f.LColPtr[j+1]
		for p := hi - 1; p >= lo; p-- {
			d.Nodes = append(d.Nodes, ListNode{Idx: f.LRowIdx[p], Val: f.LVal[p], Next: d.LHead[j]})
			d.LHead[j] = len(d.Nodes) - 1
			d.lnnz++
		}
	}
	for i := 0; i < n; i++ {
		lo, hi := f.URowPtr[i], f.URowPtr[i+1]
		for p := hi - 1; p >= lo; p-- {
			d.Nodes = append(d.Nodes, ListNode{Idx: f.UColIdx[p], Val: f.UVal[p], Next: d.UHead[i]})
			d.UHead[i] = len(d.Nodes) - 1
			d.unnz++
		}
	}
	return d
}

// Dim returns the matrix dimension.
func (d *DynamicFactors) Dim() int { return d.n }

// Clone returns a deep copy of the container, including the profiling
// counters at their current values.
func (d *DynamicFactors) Clone() Factors {
	return &DynamicFactors{
		n:         d.n,
		Nodes:     append([]ListNode(nil), d.Nodes...),
		LHead:     append([]int(nil), d.LHead...),
		UHead:     append([]int(nil), d.UHead...),
		D:         append([]float64(nil), d.D...),
		lnnz:      d.lnnz,
		unnz:      d.unnz,
		mirror:    d.mirror,
		Inserts:   d.Inserts,
		ScanSteps: d.ScanSteps,
	}
}

// Mirrored reports whether every U row list equals the L column list of
// the same index, node for node, in index and in value bits — the
// linked-list form of StaticFactors.Mirrored, so U = Lᵀ. Containers
// built from mirrored static factors start that way, and bennett's
// symmetric cross path keeps it (every value it writes goes into both
// lists, every fill position is spliced into both); the answer is
// cached, and being a function of the lists alone, a clone, a decoded
// copy and a replayed one answer alike.
func (d *DynamicFactors) Mirrored() bool { return d.mirror }

// RefreshMirror recomputes Mirrored from the lists, for a writer that
// does not keep them mirrored by construction (the rank-1 path, InsertL,
// InsertU, a lone SpliceL or SpliceU). Lists of different total lengths
// cost nothing; otherwise it stops at the first pair of lists that
// differ.
func (d *DynamicFactors) RefreshMirror() {
	d.mirror = d.lnnz == d.unnz && d.listsMirrored()
}

// listsMirrored walks each L column list beside the U row list of the
// same index.
func (d *DynamicFactors) listsMirrored() bool {
	for i := 0; i < d.n; i++ {
		l, u := d.LHead[i], d.UHead[i]
		for l != -1 && u != -1 {
			ln, un := &d.Nodes[l], &d.Nodes[u]
			if ln.Idx != un.Idx || math.Float64bits(ln.Val) != math.Float64bits(un.Val) {
				return false
			}
			l, u = ln.Next, un.Next
		}
		if l != u {
			return false
		}
	}
	return true
}

// Size returns the current structural size |sp(L)| + |sp(U)| + n. It
// grows as incremental updates insert fill.
func (d *DynamicFactors) Size() int { return d.lnnz + d.unnz + d.n }

// newNode appends a pool cell and returns its index.
func (d *DynamicFactors) newNode(idx int, val float64, next int) int {
	d.Nodes = append(d.Nodes, ListNode{Idx: idx, Val: val, Next: next})
	return len(d.Nodes) - 1
}

// InsertL splices value val at L(i, j), keeping column j sorted. If the
// position already exists its value is overwritten. The scan from the
// list head is deliberate: it reproduces the access pattern (and cost)
// of adjacency-list maintenance.
func (d *DynamicFactors) InsertL(i, j int, val float64) {
	defer d.RefreshMirror()
	prev := -1
	cur := d.LHead[j]
	for cur != -1 && d.Nodes[cur].Idx < i {
		d.ScanSteps++
		prev = cur
		cur = d.Nodes[cur].Next
	}
	if cur != -1 && d.Nodes[cur].Idx == i {
		d.Nodes[cur].Val = val
		return
	}
	nn := d.newNode(i, val, cur)
	if prev == -1 {
		d.LHead[j] = nn
	} else {
		d.Nodes[prev].Next = nn
	}
	d.Inserts++
	d.lnnz++
}

// InsertU splices value val at U(i, j), keeping row i sorted.
func (d *DynamicFactors) InsertU(i, j int, val float64) {
	defer d.RefreshMirror()
	prev := -1
	cur := d.UHead[i]
	for cur != -1 && d.Nodes[cur].Idx < j {
		d.ScanSteps++
		prev = cur
		cur = d.Nodes[cur].Next
	}
	if cur != -1 && d.Nodes[cur].Idx == j {
		d.Nodes[cur].Val = val
		return
	}
	nn := d.newNode(j, val, cur)
	if prev == -1 {
		d.UHead[i] = nn
	} else {
		d.Nodes[prev].Next = nn
	}
	d.Inserts++
	d.unnz++
}

// SpliceL inserts a new node L(row, col) = val between the known
// neighbours prev and next of column col's list (prev == -1 inserts at
// the head). Callers that already hold a cursor — like Bennett's merged
// walk — use this to splice without rescanning; the insertion is still
// counted as restructuring work. It leaves Mirrored as it was: a caller
// splices the mirror position into U too (SpliceU), or refreshes.
func (d *DynamicFactors) SpliceL(col, prev, next, row int, val float64) int {
	nn := d.newNode(row, val, next)
	if prev == -1 {
		d.LHead[col] = nn
	} else {
		d.Nodes[prev].Next = nn
	}
	d.Inserts++
	d.lnnz++
	return nn
}

// SpliceU is the U-row analogue of SpliceL.
func (d *DynamicFactors) SpliceU(row, prev, next, col int, val float64) int {
	nn := d.newNode(col, val, next)
	if prev == -1 {
		d.UHead[row] = nn
	} else {
		d.Nodes[prev].Next = nn
	}
	d.Inserts++
	d.unnz++
	return nn
}

// LAt returns L(i, j), scanning column j.
func (d *DynamicFactors) LAt(i, j int) float64 {
	for cur := d.LHead[j]; cur != -1; cur = d.Nodes[cur].Next {
		if d.Nodes[cur].Idx == i {
			return d.Nodes[cur].Val
		}
		if d.Nodes[cur].Idx > i {
			break
		}
	}
	return 0
}

// UAt returns U(i, j), scanning row i.
func (d *DynamicFactors) UAt(i, j int) float64 {
	for cur := d.UHead[i]; cur != -1; cur = d.Nodes[cur].Next {
		if d.Nodes[cur].Idx == j {
			return d.Nodes[cur].Val
		}
		if d.Nodes[cur].Idx > j {
			break
		}
	}
	return 0
}

// SolveInPlace solves L·D·U·x = b, overwriting b with x.
func (d *DynamicFactors) SolveInPlace(b []float64) {
	if len(b) != d.n {
		panic("lu: SolveInPlace dimension mismatch")
	}
	n := d.n
	for j := 0; j < n; j++ {
		bj := b[j]
		if bj == 0 {
			continue
		}
		for cur := d.LHead[j]; cur != -1; cur = d.Nodes[cur].Next {
			b[d.Nodes[cur].Idx] -= d.Nodes[cur].Val * bj
		}
	}
	for i := 0; i < n; i++ {
		b[i] /= d.D[i]
	}
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		for cur := d.UHead[i]; cur != -1; cur = d.Nodes[cur].Next {
			s -= d.Nodes[cur].Val * b[d.Nodes[cur].Idx]
		}
		b[i] = s
	}
}

// Reconstruct multiplies the factors back into an explicit matrix
// (test helper).
func (d *DynamicFactors) Reconstruct() *sparse.CSR {
	n := d.n
	l := make([][]float64, n)
	u := make([][]float64, n)
	for i := 0; i < n; i++ {
		l[i] = make([]float64, n)
		u[i] = make([]float64, n)
		l[i][i] = 1
		u[i][i] = 1
	}
	for j := 0; j < n; j++ {
		for cur := d.LHead[j]; cur != -1; cur = d.Nodes[cur].Next {
			l[d.Nodes[cur].Idx][j] = d.Nodes[cur].Val
		}
	}
	for i := 0; i < n; i++ {
		for cur := d.UHead[i]; cur != -1; cur = d.Nodes[cur].Next {
			u[i][d.Nodes[cur].Idx] = d.Nodes[cur].Val
		}
	}
	c := sparse.NewCOO(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for k := 0; k <= i && k <= j; k++ {
				s += l[i][k] * d.D[k] * u[k][j]
			}
			if s != 0 {
				c.Add(i, j, s)
			}
		}
	}
	return c.ToCSR()
}
