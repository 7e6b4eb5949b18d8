package bennett

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/lu"
	"repro/internal/sparse"
	"repro/internal/xrand"
)

// staticBitEqual is exact (bitwise) equality of two static containers:
// every structural array and every value array, no tolerance. This is
// the currency of the history property — materialized factors must be
// indistinguishable from the retained full clone.
func staticBitEqual(a, b *lu.StaticFactors) bool {
	return a.Dim() == b.Dim() &&
		slices.Equal(a.LColPtr, b.LColPtr) && slices.Equal(a.LRowIdx, b.LRowIdx) &&
		slices.Equal(a.LVal, b.LVal) &&
		slices.Equal(a.URowPtr, b.URowPtr) && slices.Equal(a.UColIdx, b.UColIdx) &&
		slices.Equal(a.UVal, b.UVal) && slices.Equal(a.D, b.D) &&
		slices.Equal(a.LRowPtr, b.LRowPtr) && slices.Equal(a.LRowCols, b.LRowCols) &&
		slices.Equal(a.LRowPos, b.LRowPos) &&
		slices.Equal(a.UColPtr, b.UColPtr) && slices.Equal(a.UColRows, b.UColRows) &&
		slices.Equal(a.UColPos, b.UColPos)
}

// dynamicBitEqual additionally pins the node-pool layout: replayed
// splices must land in the same pool cells the live update used.
func dynamicBitEqual(a, b *lu.DynamicFactors) bool {
	if a.Dim() != b.Dim() || a.Size() != b.Size() ||
		a.Inserts != b.Inserts || a.ScanSteps != b.ScanSteps {
		return false
	}
	if !slices.Equal(a.Nodes, b.Nodes) || !slices.Equal(a.LHead, b.LHead) ||
		!slices.Equal(a.UHead, b.UHead) || !slices.Equal(a.D, b.D) {
		return false
	}
	for j := 0; j < a.Dim(); j++ {
		if !slices.Equal(a.LSucc(j), b.LSucc(j)) || !slices.Equal(a.USucc(j), b.USucc(j)) {
			return false
		}
	}
	return true
}

// historyWalk generates a random matrix walk, applies it to a
// container (static under the walk's union pattern, or dynamic),
// records each step's terms in a HistoryLog, and retains a full clone
// per version. Returns the log and the clones indexed by version.
func historyWalk(t *testing.T, rng *xrand.Rand, dynamic bool, steps int) (*HistoryLog, []lu.Factors) {
	t.Helper()
	n := 5 + rng.Intn(20)
	mats := []*sparse.CSR{randomDominant(rng, n, 4*n)}
	cur := mats[0]
	for s := 0; s < steps; s++ {
		next := applyEntries(cur, smallDelta(rng, cur, 4))
		mats = append(mats, next)
		cur = next
	}
	union := mats[0].Pattern()
	for _, m := range mats[1:] {
		union = union.Union(m.Pattern())
	}
	fs := lu.NewStaticFactors(lu.Symbolic(union))
	if err := fs.Factorize(mats[0]); err != nil {
		t.Fatal(err)
	}
	var f lu.Factors = fs
	if dynamic {
		f = lu.NewDynamicFactors(fs)
	}

	log := NewHistoryLog()
	log.Record(VersionRecord{Version: 0, Structural: true})
	clones := []lu.Factors{f.Clone()}
	var ws Workspace
	for v := 1; v < len(mats); v++ {
		delta := sparse.Delta(mats[v-1], mats[v])
		var err error
		if dynamic {
			err = ws.UpdateDynamic(f.(*lu.DynamicFactors), delta, nil)
		} else {
			err = ws.UpdateStatic(f.(*lu.StaticFactors), delta, nil)
		}
		if err != nil {
			t.Fatalf("version %d: %v", v, err)
		}
		log.Record(VersionRecord{Version: uint64(v), Terms: SplitTerms(delta)})
		clones = append(clones, f.Clone())
	}
	return log, clones
}

// TestMaterializeBitIdentical is the history property: for both
// container kinds, materializing any target version from any earlier
// base version reproduces the retained full clone bit for bit — same
// values, same structure, same node-pool layout, same counters — and
// leaves the base it cloned untouched. One MaterializeWorkspace serves
// every pair.
func TestMaterializeBitIdentical(t *testing.T) {
	for _, dynamic := range []bool{false, true} {
		name := "static"
		if dynamic {
			name = "dynamic"
		}
		t.Run(name, func(t *testing.T) {
			rng := xrand.New(910)
			for trial := 0; trial < 6; trial++ {
				log, clones := historyWalk(t, rng, dynamic, 6)
				var mw MaterializeWorkspace
				for b := 0; b < len(clones); b++ {
					keep := clones[b].Clone()
					for tv := b; tv < len(clones); tv++ {
						got, err := mw.Materialize(clones[b], log, uint64(b), uint64(tv), nil)
						if err != nil {
							t.Fatalf("trial %d (%d→%d): %v", trial, b, tv, err)
						}
						if dynamic {
							if !dynamicBitEqual(got.(*lu.DynamicFactors), clones[tv].(*lu.DynamicFactors)) {
								t.Fatalf("trial %d (%d→%d): materialized dynamic factors differ from retained clone", trial, b, tv)
							}
							if !dynamicBitEqual(clones[b].(*lu.DynamicFactors), keep.(*lu.DynamicFactors)) {
								t.Fatalf("trial %d (%d→%d): replay wrote into its base", trial, b, tv)
							}
						} else {
							if !staticBitEqual(got.(*lu.StaticFactors), clones[tv].(*lu.StaticFactors)) {
								t.Fatalf("trial %d (%d→%d): materialized static factors differ from retained clone", trial, b, tv)
							}
							if !staticBitEqual(clones[b].(*lu.StaticFactors), keep.(*lu.StaticFactors)) {
								t.Fatalf("trial %d (%d→%d): replay wrote into its base", trial, b, tv)
							}
						}
					}
				}
			}
		})
	}
}

// TestMaterializeAllocatesOnlyTheClone pins what a static
// materialization costs on a warm workspace: the clone it returns —
// three value arrays and a header, the index structure being shared
// with the base — and nothing for the replay itself.
func TestMaterializeAllocatesOnlyTheClone(t *testing.T) {
	log, clones := historyWalk(t, xrand.New(911), false, 8)
	base, last := clones[0], uint64(len(clones)-1)
	var mw MaterializeWorkspace
	// Warm: the first call grows the workspace and the record buffer.
	if _, err := mw.Materialize(base, log, 0, last, nil); err != nil {
		t.Fatal(err)
	}
	var sink lu.Factors
	clone := testing.AllocsPerRun(20, func() { sink = base.Clone() })
	if clone != 4 {
		t.Errorf("static Clone makes %v allocations, want 4 (header, LVal, UVal, D)", clone)
	}
	replay := testing.AllocsPerRun(20, func() {
		var err error
		if sink, err = mw.Materialize(base, log, 0, last, nil); err != nil {
			t.Fatal(err)
		}
	})
	if replay != clone {
		t.Errorf("%v allocs per warm Materialize, want the clone's %v", replay, clone)
	}
	_ = sink
}

func TestHistoryLogWindow(t *testing.T) {
	l := NewHistoryLog()
	if _, _, ok := l.Bounds(); ok {
		t.Fatal("empty log reports bounds")
	}
	for v := uint64(3); v <= 7; v++ {
		l.Record(VersionRecord{Version: v})
	}
	if lo, hi, ok := l.Bounds(); !ok || lo != 3 || hi != 7 {
		t.Fatalf("bounds [%d, %d] ok=%v, want [3, 7]", lo, hi, ok)
	}
	// Overwrite in window is idempotent in effect (WAL replay path).
	l.Record(VersionRecord{Version: 5, Structural: true})
	if rec, ok := l.Get(5); !ok || !rec.Structural {
		t.Fatal("in-window overwrite lost")
	}
	l.Record(VersionRecord{Version: 5, Structural: false})
	if l.Len() != 5 {
		t.Fatalf("len %d after overwrite, want 5", l.Len())
	}
	// CopyRange over a gap fails.
	if _, err := l.CopyRange(nil, 1, 4); !errors.Is(err, ErrHistoryGap) {
		t.Fatalf("gap error %v, want ErrHistoryGap", err)
	}
	// Trim drops the prefix.
	l.TrimBelow(5)
	if lo, hi, _ := l.Bounds(); lo != 5 || hi != 7 {
		t.Fatalf("bounds after trim [%d, %d], want [5, 7]", lo, hi)
	}
	if _, ok := l.Get(4); ok {
		t.Fatal("trimmed record still present")
	}
	// A non-abutting version resets the window.
	l.Record(VersionRecord{Version: 20})
	if lo, hi, _ := l.Bounds(); lo != 20 || hi != 20 {
		t.Fatalf("bounds after reset [%d, %d], want [20, 20]", lo, hi)
	}
}

func TestCopyRangeStructuralBreak(t *testing.T) {
	l := NewHistoryLog()
	l.Record(VersionRecord{Version: 0, Structural: true})
	l.Record(VersionRecord{Version: 1})
	l.Record(VersionRecord{Version: 2, Structural: true}) // rebuild
	l.Record(VersionRecord{Version: 3})
	if _, err := l.CopyRange(nil, 0, 3); !errors.Is(err, ErrStructuralBreak) {
		t.Fatalf("error %v, want ErrStructuralBreak", err)
	}
	if _, err := l.CopyRange(nil, 2, 3); err != nil {
		t.Fatalf("post-break range failed: %v", err)
	}
	if _, err := l.CopyRange(nil, 0, 1); err != nil {
		t.Fatalf("pre-break range failed: %v", err)
	}
}
