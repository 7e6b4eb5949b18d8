package lu

// Buffer-reusing deep copies of the factor containers. Clone allocates
// a fresh container every time; the history layer (bennett.HistoryLog +
// MaterializeInto) instead recycles one destination container across
// many materializations, so these CloneInto variants copy into existing
// backing arrays whenever their capacity suffices — the same shrink-
// reuse idiom as SolveWorkspace.vectors. The copied container is
// bit-identical to src.Clone(): same lengths, same values, same node
// pool layout for the dynamic container (replayed Bennett updates
// splice nodes deterministically, so layout identity is what makes
// replay-on-a-copy reproduce the live container exactly).

func reuseInts(dst, src []int) []int {
	if cap(dst) < len(src) {
		dst = make([]int, len(src))
	}
	dst = dst[:len(src)]
	copy(dst, src)
	return dst
}

func reuseFloats(dst, src []float64) []float64 {
	if cap(dst) < len(src) {
		dst = make([]float64, len(src))
	}
	dst = dst[:len(src)]
	copy(dst, src)
	return dst
}

func reuseNodes(dst, src []ListNode) []ListNode {
	if cap(dst) < len(src) {
		dst = make([]ListNode, len(src))
	}
	dst = dst[:len(src)]
	copy(dst, src)
	return dst
}

// CloneStaticInto copies src into dst, reusing dst's backing arrays
// when they are large enough. dst may be nil (a fresh container is
// allocated). Returns the destination.
func CloneStaticInto(dst, src *StaticFactors) *StaticFactors {
	if dst == nil {
		dst = &StaticFactors{}
	}
	dst.n = src.n
	dst.LColPtr = reuseInts(dst.LColPtr, src.LColPtr)
	dst.LRowIdx = reuseInts(dst.LRowIdx, src.LRowIdx)
	dst.LVal = reuseFloats(dst.LVal, src.LVal)
	dst.URowPtr = reuseInts(dst.URowPtr, src.URowPtr)
	dst.UColIdx = reuseInts(dst.UColIdx, src.UColIdx)
	dst.UVal = reuseFloats(dst.UVal, src.UVal)
	dst.D = reuseFloats(dst.D, src.D)
	dst.LRowPtr = reuseInts(dst.LRowPtr, src.LRowPtr)
	dst.LRowCols = reuseInts(dst.LRowCols, src.LRowCols)
	dst.LRowPos = reuseInts(dst.LRowPos, src.LRowPos)
	dst.UColPtr = reuseInts(dst.UColPtr, src.UColPtr)
	dst.UColRows = reuseInts(dst.UColRows, src.UColRows)
	dst.UColPos = reuseInts(dst.UColPos, src.UColPos)
	return dst
}

// CloneDynamicInto copies src into dst, reusing dst's backing arrays
// (including the per-column pattern index slices) when large enough.
// dst may be nil. Returns the destination.
func CloneDynamicInto(dst, src *DynamicFactors) *DynamicFactors {
	if dst == nil {
		dst = &DynamicFactors{}
	}
	dst.n = src.n
	dst.Nodes = reuseNodes(dst.Nodes, src.Nodes)
	dst.LHead = reuseInts(dst.LHead, src.LHead)
	dst.UHead = reuseInts(dst.UHead, src.UHead)
	dst.D = reuseFloats(dst.D, src.D)
	dst.lnnz = src.lnnz
	dst.unnz = src.unnz
	dst.Inserts = src.Inserts
	dst.ScanSteps = src.ScanSteps
	n := src.n
	if cap(dst.lCols) < n {
		dst.lCols = make([][]int, n)
	}
	if cap(dst.uCols) < n {
		dst.uCols = make([][]int, n)
	}
	dst.lCols = dst.lCols[:n]
	dst.uCols = dst.uCols[:n]
	for j := 0; j < n; j++ {
		dst.lCols[j] = reuseInts(dst.lCols[j], src.lCols[j])
		dst.uCols[j] = reuseInts(dst.uCols[j], src.uCols[j])
	}
	return dst
}

// CloneFactorsInto dispatches to the concrete CloneInto for the two
// container kinds. dst is reused when it has the same concrete type as
// src (otherwise a fresh container is allocated). Unknown Factors
// implementations fall back to src.Clone().
func CloneFactorsInto(dst, src Factors) Factors {
	switch s := src.(type) {
	case *StaticFactors:
		d, _ := dst.(*StaticFactors)
		return CloneStaticInto(d, s)
	case *DynamicFactors:
		d, _ := dst.(*DynamicFactors)
		return CloneDynamicInto(d, s)
	default:
		return src.Clone()
	}
}

// MemBytes estimates the heap bytes retained by a factor container:
// the sum of its backing arrays at their current lengths. It is the
// currency of the serve layer's history byte budget and the resident-
// bytes column of the history benchmark; an estimate (slice headers and
// spare capacity are not counted) applied consistently on both sides
// of every comparison.
func MemBytes(f Factors) int64 {
	const (
		intB   = 8
		fB     = 8
		nodeB  = 24 // ListNode: int + float64 + int
		hdrB   = 24 // slice header, counted once per per-column slice
		fixedB = 64 // struct scalars
	)
	switch t := f.(type) {
	case *StaticFactors:
		ints := len(t.LColPtr) + len(t.LRowIdx) + len(t.URowPtr) + len(t.UColIdx) +
			len(t.LRowPtr) + len(t.LRowCols) + len(t.LRowPos) +
			len(t.UColPtr) + len(t.UColRows) + len(t.UColPos)
		floats := len(t.LVal) + len(t.UVal) + len(t.D)
		return int64(fixedB + ints*intB + floats*fB)
	case *DynamicFactors:
		b := int64(fixedB + len(t.Nodes)*nodeB + (len(t.LHead)+len(t.UHead))*intB + len(t.D)*fB)
		for j := range t.lCols {
			b += int64(hdrB + len(t.lCols[j])*intB)
		}
		for j := range t.uCols {
			b += int64(hdrB + len(t.uCols[j])*intB)
		}
		return b
	default:
		return int64(f.Size()) * (intB + fB)
	}
}
