package lu

// MemBytes estimates the heap bytes behind a factor container, split by
// who pays for them: owned is what this container alone keeps alive
// (values and pivots, and cross views where it built them; for the
// dynamic container everything), shared is the frozen primary index
// structure a StaticFactors has in common with every clone of the same
// cluster — retained once however many clones exist. It is the currency
// of the serve layer's history byte budget and the resident-bytes
// columns of the history benchmark; an estimate (slice headers and
// spare capacity are not counted) applied consistently on both sides of
// every comparison.
func MemBytes(f Factors) (owned, shared int64) {
	const (
		intB   = 8
		fB     = 8
		nodeB  = 24 // ListNode: int + float64 + int
		fixedB = 64 // struct scalars
	)
	switch t := f.(type) {
	case *StaticFactors:
		primary := len(t.LColPtr) + len(t.LRowIdx) + len(t.URowPtr) + len(t.UColIdx)
		cross := len(t.LRowPtr) + len(t.LRowCols) + len(t.LRowPos) +
			len(t.UColPtr) + len(t.UColRows) + len(t.UColPos)
		floats := len(t.LVal) + len(t.UVal) + len(t.D)
		return int64(fixedB + floats*fB + cross*intB), int64(primary * intB)
	case *DynamicFactors:
		return int64(fixedB + len(t.Nodes)*nodeB + (len(t.LHead)+len(t.UHead))*intB + len(t.D)*fB), 0
	default:
		return int64(f.Size()) * (intB + fB), 0
	}
}
