// Clones of a static container share its index structure and own only
// their values (the paper's one-structure-per-cluster economy, held in
// memory): these tests pin the sharing itself and the isolation it must
// not cost. External test package: they drive internal/bennett.
package lu_test

import (
	"sync"
	"testing"

	"repro/internal/lu"
	"repro/internal/xrand"
)

// TestStaticCloneSharesStructureOwnsValues: every index array of a clone
// is the original's very array, every value array is a copy.
func TestStaticCloneSharesStructureOwnsValues(t *testing.T) {
	f := newBennettPair(t, 71).static
	c := f.Clone().(*lu.StaticFactors)
	for name, pair := range map[string][2][]int{
		"LColPtr": {f.LColPtr, c.LColPtr}, "LRowIdx": {f.LRowIdx, c.LRowIdx},
		"URowPtr": {f.URowPtr, c.URowPtr}, "UColIdx": {f.UColIdx, c.UColIdx},
		"LRowPtr": {f.LRowPtr, c.LRowPtr}, "LRowCols": {f.LRowCols, c.LRowCols}, "LRowPos": {f.LRowPos, c.LRowPos},
		"UColPtr": {f.UColPtr, c.UColPtr}, "UColRows": {f.UColRows, c.UColRows}, "UColPos": {f.UColPos, c.UColPos},
	} {
		if len(pair[0]) == 0 || len(pair[0]) != len(pair[1]) || &pair[0][0] != &pair[1][0] {
			t.Errorf("%s: the clone does not share the original's array", name)
		}
	}
	for name, pair := range map[string][2][]float64{
		"LVal": {f.LVal, c.LVal}, "UVal": {f.UVal, c.UVal}, "D": {f.D, c.D},
	} {
		if len(pair[0]) == 0 || len(pair[0]) != len(pair[1]) || &pair[0][0] == &pair[1][0] {
			t.Errorf("%s: the clone does not own its values", name)
		}
		for i := range pair[0] {
			if pair[0][i] != pair[1][i] {
				t.Fatalf("%s[%d]: clone %v, original %v", name, i, pair[1][i], pair[0][i])
			}
		}
	}
	owned, shared := lu.MemBytes(c)
	if wantShared := int64(8 * (len(c.LColPtr) + len(c.LRowIdx) + len(c.URowPtr) + len(c.UColIdx) +
		len(c.LRowPtr) + len(c.LRowCols) + len(c.LRowPos) + len(c.UColPtr) + len(c.UColRows) + len(c.UColPos))); shared != wantShared {
		t.Errorf("shared bytes %d, want the ten index arrays' %d", shared, wantShared)
	}
	if min := int64(8 * (len(c.LVal) + len(c.UVal) + len(c.D))); owned < min || owned > min+128 {
		t.Errorf("owned bytes %d, want the three value arrays' %d plus a header", owned, min)
	}
	if o, s := lu.MemBytes(newBennettPair(t, 71).dynamic); o == 0 || s != 0 {
		t.Errorf("dynamic container: owned %d shared %d, want everything owned", o, s)
	}
}

// TestClonesUnmovedByUpdatesOfTheOriginal: Bennett updates of the
// original — which run over the shared index arrays — leave every
// earlier clone's answers bit-identical, on every solve route.
func TestClonesUnmovedByUpdatesOfTheOriginal(t *testing.T) {
	p := newBennettPair(t, 72)
	rng := xrand.New(73)
	n := p.static.Dim()
	bs := blockRHS(rng, 4, n)
	type pin struct {
		s    *lu.Solver
		want [][]float64
	}
	var pins []pin
	for step := 0; step < 8; step++ {
		c := p.sSolver.Clone()
		pins = append(pins, pin{c, solveAll(c, bs)})
		p.step(t)
	}
	var ws lu.SolveWorkspace
	for i, pn := range pins {
		assertBlockEquals(t, "dense", func() []lu.RHS {
			rhs := denseBlock(bs)
			for r := range rhs {
				pn.s.SolveRHS(rhs[r:r+1], true, &ws)
			}
			return rhs
		}(), pn.want)
		blocked := denseBlock(bs)
		pn.s.ForceBlock(blocked, &ws)
		assertBlockEquals(t, "block", blocked, pn.want)
		packed := denseBlock(bs)
		if !pn.s.ForcePanel(packed, &ws) {
			t.Fatalf("pin %d: no panel form", i)
		}
		assertBlockEquals(t, "panel", packed, pn.want)
	}
}

// TestConcurrentSolvesOnClonesDuringUpdates is the sharing's race
// check: readers solve against clones while the original is updated in
// place. Under -race any write to a shared index array, or any value
// array left shared, is reported; the answers must not move either.
func TestConcurrentSolvesOnClonesDuringUpdates(t *testing.T) {
	p := newBennettPair(t, 74)
	n := p.static.Dim()
	bs := blockRHS(xrand.New(75), 3, n)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 3; r++ {
		c := p.sSolver.Clone()
		want := solveAll(c, bs)
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ws lu.SolveWorkspace
			for {
				select {
				case <-stop:
					return
				default:
				}
				rhs := denseBlock(bs)
				c.SolveRHS(rhs, true, &ws)
				for k := range rhs {
					for i := range want[k] {
						if rhs[k].X[i] != want[k][i] {
							t.Errorf("clone's answer moved at rhs %d row %d: %v vs %v", k, i, rhs[k].X[i], want[k][i])
							return
						}
					}
				}
			}
		}()
	}
	for step := 0; step < 40; step++ {
		p.step(t)
	}
	close(stop)
	wg.Wait()
}
