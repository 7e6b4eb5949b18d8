package lu

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/sparse"
)

// PivotTolerance is the absolute threshold below which a pivot is
// reported as numerically singular. The evolving-graph matrices this
// repository factors (I − d·W, d < 1) keep pivots comfortably above
// this value.
const PivotTolerance = 1e-12

// StaticFactors stores A = L·D·U with all index structure frozen at
// construction time from a symbolic pattern. L is strictly lower
// triangular stored by columns; U is strictly upper triangular stored
// by rows; D is the dense pivot vector. These primary arrays are all a
// solve reads. The cross views (L by rows, U by columns) index into the
// same value arrays so the Crout factorization and the symmetric
// Bennett walk can stream the other orientation without searching; they
// are built on demand (EnsureCrossViews) and left out of every copy.
//
// This is the CLUDE container: constructed once per cluster from the
// universal symbolic sparsity pattern (USSP), then refilled numerically
// for each matrix in the cluster, with Bennett updates touching values
// only. The structure never changes after NewStaticFactors, which is
// what lets clones share it (see Clone): the primary index arrays below
// are read-only for everyone, the receiver included.
type StaticFactors struct {
	n int

	// L by column: rows LRowIdx[LColPtr[j]:LColPtr[j+1]] (sorted, > j).
	LColPtr []int
	LRowIdx []int
	LVal    []float64

	// U by row: cols UColIdx[URowPtr[i]:URowPtr[i+1]] (sorted, > i).
	URowPtr []int
	UColIdx []int
	UVal    []float64

	// D: pivots.
	D []float64

	// Cross view of L by row: for row i, columns LRowCols[...] with
	// LRowPos pointing into LVal. Like the view of U below, nil on a
	// Clone or an AssembleStatic until EnsureCrossViews.
	LRowPtr  []int
	LRowCols []int
	LRowPos  []int

	// Cross view of U by column: for column j, rows UColRows[...] with
	// UColPos pointing into UVal.
	UColPtr  []int
	UColRows []int
	UColPos  []int

	// symStruct: the structure is its own transpose (LColPtr == URowPtr,
	// LRowIdx == UColIdx), so LVal[p] and UVal[p] sit at mirrored
	// positions. Set where the index arrays are built; they never change.
	symStruct bool
	// mirror caches Mirrored, a pure function of the container; every
	// writer of the values keeps it equal to that function.
	mirror bool
}

// NewStaticFactors allocates a factor container whose structure is the
// symbolic pattern s, cross views included. Values start at zero.
func NewStaticFactors(s *SymbolicLU) *StaticFactors {
	n := s.N()
	f := &StaticFactors{n: n, D: make([]float64, n)}

	// L by column from the per-row lower patterns. A row-major scan
	// emits rows in increasing order per column, so each column comes
	// out sorted. The rows it scans are L's row view as they stand
	// (sorted), and where each entry lands is its LRowPos: the cross view
	// of L falls out of the same pass.
	f.LColPtr = make([]int, n+1)
	f.LRowPtr = make([]int, n+1)
	for i := 0; i < n; i++ {
		row := s.LRow(i)
		f.LRowPtr[i+1] = f.LRowPtr[i] + len(row)
		for _, j := range row {
			f.LColPtr[j+1]++
		}
	}
	for j := 0; j < n; j++ {
		f.LColPtr[j+1] += f.LColPtr[j]
	}
	nl := f.LColPtr[n]
	f.LRowIdx = make([]int, nl)
	f.LVal = make([]float64, nl)
	f.LRowCols = make([]int, 0, nl)
	f.LRowPos = make([]int, nl)
	next := make([]int, n)
	copy(next, f.LColPtr[:n])
	for i := 0; i < n; i++ {
		row := s.LRow(i)
		pos := f.LRowPos[f.LRowPtr[i]:f.LRowPtr[i+1]]
		for q, j := range row {
			f.LRowIdx[next[j]] = i
			pos[q] = next[j]
			next[j]++
		}
		f.LRowCols = append(f.LRowCols, row...)
	}

	// U by row directly from the per-row upper patterns.
	f.URowPtr = make([]int, n+1)
	for i := 0; i < n; i++ {
		f.URowPtr[i+1] = f.URowPtr[i] + len(s.URow(i))
	}
	f.UColIdx = make([]int, 0, f.URowPtr[n])
	for i := 0; i < n; i++ {
		f.UColIdx = append(f.UColIdx, s.URow(i)...)
	}
	f.UVal = make([]float64, f.URowPtr[n])

	f.symStruct = slices.Equal(f.LColPtr, f.URowPtr) && slices.Equal(f.LRowIdx, f.UColIdx)
	f.mirror = f.symStruct
	f.UColPtr, f.UColRows, f.UColPos = transpose(n, f.URowPtr, f.UColIdx)
	return f
}

// EnsureCrossViews builds the cross views (L by row, U by column) from
// the primary arrays if the container has none. Clone and AssembleStatic
// leave them out, since a solve, the directed Bennett update and the
// codec read only the primary arrays; Crout factorization and the
// symmetric Bennett walk call this first. It writes the container, so
// only its exclusive owner may call it: the live container of a stream
// or a run, or a fresh materialization — never a retained or shared one.
//
// Scanning the columns of L (the rows of U) in ascending order emits
// every row's columns (every column's rows) ascending.
func (f *StaticFactors) EnsureCrossViews() {
	if f.LRowPtr != nil {
		return
	}
	f.LRowPtr, f.LRowCols, f.LRowPos = transpose(f.n, f.LColPtr, f.LRowIdx)
	f.UColPtr, f.UColRows, f.UColPos = transpose(f.n, f.URowPtr, f.UColIdx)
}

// transpose returns the other orientation of the compressed n×n
// structure ptr/idx: for each minor index, the major indices that hold
// it (ascending) and their positions in idx.
func transpose(n int, ptr, idx []int) (tPtr, tIdx, tPos []int) {
	tPtr = make([]int, n+1)
	for _, i := range idx {
		tPtr[i+1]++
	}
	for i := 0; i < n; i++ {
		tPtr[i+1] += tPtr[i]
	}
	tIdx = make([]int, len(idx))
	tPos = make([]int, len(idx))
	next := make([]int, n)
	copy(next, tPtr[:n])
	for j := 0; j < n; j++ {
		lo := ptr[j]
		for k, i := range idx[lo:ptr[j+1]] {
			w := next[i]
			next[i] = w + 1
			tIdx[w], tPos[w] = j, lo+k
		}
	}
	return tPtr, tIdx, tPos
}

// Mirrored reports whether the factors are their own transpose bit for
// bit: a symmetric structure, and LVal equal to UVal in every bit, so
// U = Lᵀ. A full decomposition of a bitwise symmetric matrix under a
// symmetric ordering comes out that way (Crout's column of L and row of
// U form the same products in the same order), and a symmetric Bennett
// update keeps it (bennett.Workspace.ApplyTerms), so the answer is
// cached rather than recomputed; being a function of the values alone,
// a clone, a decoded copy and a replayed one answer alike.
func (f *StaticFactors) Mirrored() bool { return f.mirror }

// RefreshMirror recomputes Mirrored from the values, for a writer of
// LVal or UVal that does not keep the two mirrored by construction. On
// an unsymmetric structure it costs nothing; otherwise it stops at the
// first pair of values that differ.
func (f *StaticFactors) RefreshMirror() {
	f.mirror = f.symStruct && sameBits(f.LVal, f.UVal)
}

// sameBits reports whether two float slices hold the same bit patterns.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// Dim returns the matrix dimension n.
func (f *StaticFactors) Dim() int { return f.n }

// Clone returns a container with its own values (LVal, UVal, D) that
// shares the receiver's primary index structure. Nothing writes a
// primary index array after NewStaticFactors / AssembleStatic —
// factorizations and Bennett updates touch values only — so the clone
// shares no mutable state, and a cluster's retained snapshots hold the
// USSP structure once between them, as the paper's
// one-structure-per-cluster argument has it. The clone has no cross
// views: what is retained is solved, not refactorized, and a clone that
// is written builds its own (EnsureCrossViews).
func (f *StaticFactors) Clone() Factors {
	c := *f
	c.LRowPtr, c.LRowCols, c.LRowPos = nil, nil, nil
	c.UColPtr, c.UColRows, c.UColPos = nil, nil, nil
	c.LVal = append([]float64(nil), f.LVal...)
	c.UVal = append([]float64(nil), f.UVal...)
	c.D = append([]float64(nil), f.D...)
	return &c
}

// Size returns the structural size |sp(L)| + |sp(U)| + n, i.e. the
// paper's |s̃p| for the pattern the container was built from.
func (f *StaticFactors) Size() int { return len(f.LVal) + len(f.UVal) + f.n }

// Reset zeroes all factor values, keeping the structure.
func (f *StaticFactors) Reset() {
	for i := range f.LVal {
		f.LVal[i] = 0
	}
	for i := range f.UVal {
		f.UVal[i] = 0
	}
	for i := range f.D {
		f.D[i] = 0
	}
	f.mirror = f.symStruct
}

// lFind returns the position in LVal of entry (i, j), or -1 if the
// position is outside the frozen structure.
func (f *StaticFactors) lFind(i, j int) int {
	lo, hi := f.LColPtr[j], f.LColPtr[j+1]
	rows := f.LRowIdx[lo:hi]
	k := sort.SearchInts(rows, i)
	if k < len(rows) && rows[k] == i {
		return lo + k
	}
	return -1
}

// uFind returns the position in UVal of entry (i, j), or -1 if absent.
func (f *StaticFactors) uFind(i, j int) int {
	lo, hi := f.URowPtr[i], f.URowPtr[i+1]
	cols := f.UColIdx[lo:hi]
	k := sort.SearchInts(cols, j)
	if k < len(cols) && cols[k] == j {
		return lo + k
	}
	return -1
}

// LAt returns L(i, j) (unit diagonal implicit; strictly lower only).
func (f *StaticFactors) LAt(i, j int) float64 {
	if p := f.lFind(i, j); p >= 0 {
		return f.LVal[p]
	}
	return 0
}

// UAt returns U(i, j) (unit diagonal implicit; strictly upper only).
func (f *StaticFactors) UAt(i, j int) float64 {
	if p := f.uFind(i, j); p >= 0 {
		return f.UVal[p]
	}
	return 0
}

// SingularError reports a zero or numerically negligible pivot met
// during factorization or update.
type SingularError struct {
	Pivot int
	Value float64
}

func (e *SingularError) Error() string {
	return fmt.Sprintf("lu: singular pivot %d (value %g)", e.Pivot, e.Value)
}

// Workspace holds what a numeric factorization needs besides the
// container: the dense work vector it scatters into, a column view of
// the matrix being factorized, and, for the general route, one cursor
// per column of L and row of U. Callers that factorize many matrices —
// one full decomposition per cluster in the LUDEM pipelines, one per
// growth batch on a stream — keep one Workspace per worker goroutine
// and pass it to FactorizeWith, which then allocates nothing. The zero
// value is ready to use; a Workspace must not be shared between
// concurrent factorizations.
type Workspace struct {
	w []float64

	// Column view of the matrix: column j's rows (ascending) and values
	// are colRows/colVals[colPtr[j]:colPtr[j+1]].
	colPtr  []int
	colRows []int
	colVals []float64

	// lfirst[m] is the first position of column m of L whose row is not
	// yet behind the elimination front, ufirst[m] the same for row m of
	// U: Crout's step k reads exactly L(k:, m) and U(m, k+1:).
	lfirst, ufirst []int
}

// resize returns s with length n, reusing capacity across dimension
// changes (cluster sizes vary; shrinking must not churn allocations).
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// columns fills the column view from a, whose rows come in increasing
// order, so every column comes out sorted.
func (ws *Workspace) columns(a *sparse.CSR) {
	n := a.N()
	ws.colPtr = resize(ws.colPtr, n+2)
	ws.colRows = resize(ws.colRows, a.NNZ())
	ws.colVals = resize(ws.colVals, a.NNZ())
	ptr := ws.colPtr
	for j := range ptr {
		ptr[j] = 0
	}
	// Count into ptr[j+2]: after the prefix sum ptr[j+1] is column j's
	// write cursor, and ends as its end.
	for i := 0; i < n; i++ {
		cols, _ := a.Row(i)
		for _, j := range cols {
			ptr[j+2]++
		}
	}
	for j := 2; j <= n+1; j++ {
		ptr[j] += ptr[j-1]
	}
	for i := 0; i < n; i++ {
		cols, vals := a.Row(i)
		for t, j := range cols {
			p := ptr[j+1]
			ws.colRows[p], ws.colVals[p] = i, vals[t]
			ptr[j+1] = p + 1
		}
	}
}

// Factorize runs the ND-phase of Crout LDU decomposition of the
// (already reordered) matrix a into the frozen structure. The pattern
// of a must be covered by the structure's symbolic pattern; positions
// of the structure that receive no value stay zero, which is how one
// cluster-wide USSP container serves every matrix in the cluster.
func (f *StaticFactors) Factorize(a *sparse.CSR) error {
	var ws Workspace
	return f.FactorizeWith(a, &ws)
}

// FactorizeWith is Factorize with caller-owned scratch (see Workspace).
//
// It takes one of two routes, from what it is given. When the structure
// is its own transpose and a is bitwise symmetric, U comes out as Lᵀ
// bit for bit (see Mirrored), so only L is computed and then copied
// (factorizeMirrored). Otherwise the general Crout loop computes both
// (factorizeGeneral). Both routes give the same bits, and fail at the
// same pivot with the same value.
func (f *StaticFactors) FactorizeWith(a *sparse.CSR, ws *Workspace) error {
	if a.N() != f.n {
		return fmt.Errorf("lu: matrix dimension %d does not match structure %d", a.N(), f.n)
	}
	f.EnsureCrossViews()
	ws.columns(a)
	if f.mirrorable(a, ws) {
		return f.factorizeMirrored(ws)
	}
	return f.factorizeGeneral(a, ws)
}

// mirrorable reports whether FactorizeWith takes the mirrored route: the
// structure is its own transpose, and the column view ws holds of a
// equals a's rows, index for index and value for value in bits.
func (f *StaticFactors) mirrorable(a *sparse.CSR, ws *Workspace) bool {
	if !f.symStruct {
		return false
	}
	for i := 0; i < a.N(); i++ {
		cols, vals := a.Row(i)
		lo, hi := ws.colPtr[i], ws.colPtr[i+1]
		if !slices.Equal(ws.colRows[lo:hi], cols) || !sameBits(ws.colVals[lo:hi], vals) {
			return false
		}
	}
	return true
}

// factorizeMirrored is the column half of factorizeGeneral, for a
// bitwise symmetric matrix on a symmetric structure. There U(m,k) is
// L(k,m) at the same position of the value arrays, so the column of U
// that step k reads is row k of L (LRowCols, LRowPos), and column m of
// L reaches row k exactly at that position: no cursor is needed. Every
// product the general route forms for row k of U, it forms for column k
// of L with its two factors swapped, in the same order of m, so copying
// LVal into UVal gives the general route's U in every bit — after a
// singular pivot too, where both have filled the same columns and rows.
func (f *StaticFactors) factorizeMirrored(ws *Workspace) error {
	f.Reset()
	n := f.n
	ws.w = resize(ws.w, n)
	w := ws.w
	var err error
	for k := 0; k < n; k++ {
		w[k] = 0
		lo, hi := f.LColPtr[k], f.LColPtr[k+1]
		lrows := f.LRowIdx[lo:hi]
		for _, i := range lrows {
			w[i] = 0
		}
		clo, chi := ws.colPtr[k], ws.colPtr[k+1]
		crows := ws.colRows[clo:chi]
		cvals := ws.colVals[clo:chi][:len(crows)]
		for t, i := range crows {
			if i >= k {
				w[i] = cvals[t]
			}
		}
		// w[i] -= sum_m L(i,m)·D(m)·L(k,m) over m < k with L(k,m) != 0.
		qlo, qhi := f.LRowPtr[k], f.LRowPtr[k+1]
		lcols := f.LRowCols[qlo:qhi]
		lpos := f.LRowPos[qlo:qhi][:len(lcols)]
		for q, m := range lcols {
			p := lpos[q]
			c := f.D[m] * f.LVal[p]
			if c == 0 {
				continue
			}
			to := f.LColPtr[m+1]
			rows := f.LRowIdx[p:to]
			vals := f.LVal[p:to][:len(rows)]
			for t, i := range rows {
				w[i] -= vals[t] * c
			}
		}
		d := w[k]
		if math.Abs(d) < PivotTolerance {
			err = &SingularError{Pivot: k, Value: d}
			break
		}
		f.D[k] = d
		lvals := f.LVal[lo:hi][:len(lrows)]
		for t, i := range lrows {
			lvals[t] = w[i] / d
		}
	}
	copy(f.UVal, f.LVal)
	f.mirror = true
	return err
}

// factorizeGeneral is the Crout loop for any matrix the structure
// covers.
//
// Step k needs, of every earlier column m of L, the entries from row k
// down, and of every earlier row m of U, the entries right of column k.
// Both start points only ever move forward, one entry at a time, and the
// cross views say when: row k of L (LRowPos) names the entry of each
// column m that step k is the last to skip, column k of U (UColPos) the
// entry of each row m. So the two cursor arrays are advanced as rows and
// columns are passed and nothing is searched for.
func (f *StaticFactors) factorizeGeneral(a *sparse.CSR, ws *Workspace) error {
	defer f.RefreshMirror()
	f.Reset()
	n := f.n
	// No step reads a position of w it has not first written, so stale
	// values from a previous use are harmless.
	ws.w, ws.lfirst, ws.ufirst = resize(ws.w, n), resize(ws.lfirst, n), resize(ws.ufirst, n)
	w, lfirst, ufirst := ws.w, ws.lfirst, ws.ufirst
	copy(lfirst, f.LColPtr[:n])
	copy(ufirst, f.URowPtr[:n])

	for k := 0; k < n; k++ {
		// ---- Column k of L and pivot D[k] ----
		// Zero the workspace over the target pattern.
		w[k] = 0
		lo, hi := f.LColPtr[k], f.LColPtr[k+1]
		lrows := f.LRowIdx[lo:hi]
		for _, i := range lrows {
			w[i] = 0
		}
		// Scatter column k of A (rows >= k).
		clo, chi := ws.colPtr[k], ws.colPtr[k+1]
		crows := ws.colRows[clo:chi]
		cvals := ws.colVals[clo:chi][:len(crows)]
		for t, i := range crows {
			if i >= k {
				w[i] = cvals[t]
			}
		}
		// w[i] -= sum_m L(i,m)·D(m)·U(m,k) over m < k with U(m,k) != 0.
		qlo, qhi := f.UColPtr[k], f.UColPtr[k+1]
		urows := f.UColRows[qlo:qhi]
		upos := f.UColPos[qlo:qhi][:len(urows)]
		for q, m := range urows {
			p := upos[q]
			ufirst[m] = p + 1 // row m of U is now past column k
			c := f.D[m] * f.UVal[p]
			if c == 0 {
				continue
			}
			from, to := lfirst[m], f.LColPtr[m+1]
			rows := f.LRowIdx[from:to]
			vals := f.LVal[from:to][:len(rows)]
			for t, i := range rows {
				w[i] -= vals[t] * c
			}
		}
		d := w[k]
		if math.Abs(d) < PivotTolerance {
			return &SingularError{Pivot: k, Value: d}
		}
		f.D[k] = d
		lvals := f.LVal[lo:hi][:len(lrows)]
		for t, i := range lrows {
			lvals[t] = w[i] / d
		}

		// ---- Row k of U ----
		ulo, uhi := f.URowPtr[k], f.URowPtr[k+1]
		ucols := f.UColIdx[ulo:uhi]
		for _, j := range ucols {
			w[j] = 0
		}
		rcols, rvals := a.Row(k)
		for t, j := range rcols {
			if j > k {
				w[j] = rvals[t]
			}
		}
		// w[j] -= sum_m L(k,m)·D(m)·U(m,j) over m < k with L(k,m) != 0.
		qlo, qhi = f.LRowPtr[k], f.LRowPtr[k+1]
		lcols := f.LRowCols[qlo:qhi]
		lpos := f.LRowPos[qlo:qhi][:len(lcols)]
		for q, m := range lcols {
			p := lpos[q]
			lfirst[m] = p + 1 // column m of L is now past row k
			c := f.LVal[p] * f.D[m]
			if c == 0 {
				continue
			}
			from, to := ufirst[m], f.URowPtr[m+1]
			cols := f.UColIdx[from:to]
			vals := f.UVal[from:to][:len(cols)]
			for t, j := range cols {
				w[j] -= c * vals[t]
			}
		}
		uvals := f.UVal[ulo:uhi][:len(ucols)]
		for t, j := range ucols {
			uvals[t] = w[j] / d
		}
	}
	return nil
}

// SolveInPlace solves L·D·U·x = b, overwriting b with x. Each column of
// L and row of U is sliced once, so the inner loops range over equal-
// length index and value slices: no pointer-array reload and no bounds
// check on them per entry (the scattered b[r] keeps its own).
func (f *StaticFactors) SolveInPlace(b []float64) {
	if len(b) != f.n {
		panic("lu: SolveInPlace dimension mismatch")
	}
	n := f.n
	// Forward: L y = b (unit lower, by columns).
	lptr := f.LColPtr[:n+1]
	for j := 0; j < n; j++ {
		bj := b[j]
		if bj == 0 {
			continue
		}
		lo, hi := lptr[j], lptr[j+1]
		rows := f.LRowIdx[lo:hi]
		vals := f.LVal[lo:hi][:len(rows)]
		for p, r := range rows {
			b[r] -= vals[p] * bj
		}
	}
	// Diagonal: D z = y.
	for i, d := range f.D[:n] {
		b[i] /= d
	}
	// Backward: U x = z (unit upper, by rows).
	uptr := f.URowPtr[:n+1]
	for i := n - 1; i >= 0; i-- {
		lo, hi := uptr[i], uptr[i+1]
		cols := f.UColIdx[lo:hi]
		vals := f.UVal[lo:hi][:len(cols)]
		s := b[i]
		for p, c := range cols {
			s -= vals[p] * b[c]
		}
		b[i] = s
	}
}

// Reconstruct multiplies the factors back into an explicit CSR matrix
// (L·D·U). Intended for tests: it verifies factorization and update
// correctness against the original matrix.
func (f *StaticFactors) Reconstruct() *sparse.CSR {
	n := f.n
	// Dense reconstruction is fine at test scale.
	l := make([][]float64, n)
	u := make([][]float64, n)
	for i := 0; i < n; i++ {
		l[i] = make([]float64, n)
		u[i] = make([]float64, n)
		l[i][i] = 1
		u[i][i] = 1
	}
	for j := 0; j < n; j++ {
		for p := f.LColPtr[j]; p < f.LColPtr[j+1]; p++ {
			l[f.LRowIdx[p]][j] = f.LVal[p]
		}
	}
	for i := 0; i < n; i++ {
		for p := f.URowPtr[i]; p < f.URowPtr[i+1]; p++ {
			u[i][f.UColIdx[p]] = f.UVal[p]
		}
	}
	c := sparse.NewCOO(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for k := 0; k <= i && k <= j; k++ {
				s += l[i][k] * f.D[k] * u[k][j]
			}
			if s != 0 {
				c.Add(i, j, s)
			}
		}
	}
	return c.ToCSR()
}

// NNZActual counts factor positions currently holding a non-zero value
// (as opposed to Size, which counts the frozen structure). Useful to
// observe how much of a USSP container a particular matrix uses.
func (f *StaticFactors) NNZActual() int {
	c := f.n
	for _, v := range f.LVal {
		if v != 0 {
			c++
		}
	}
	for _, v := range f.UVal {
		if v != 0 {
			c++
		}
	}
	return c
}
