package bennett

import "repro/internal/lu"

// ForceRescan readies the workspace for dimension n with the exhaustive
// out-of-structure scan switched on: every two-sided step of a static
// update then runs staticExtras, as every build before the counted
// check did, instead of only the steps whose count calls for it. Tests
// hold the two against each other; the flag lasts until the workspace
// meets another dimension.
func (w *Workspace) ForceRescan(n int) { w.grab(n).rescan = true }

// ApplyRank1 applies the terms by the rank-1 loop whatever the factors
// and the delta, so tests can hold the symmetric path against it.
func (w *Workspace) ApplyRank1(f lu.Factors, terms []Rank1Term, st *Stats) error {
	if st == nil {
		st = &Stats{}
	}
	err := applyRank1(f, terms, w.grab(f.Dim()), st)
	if s, ok := f.(*lu.StaticFactors); ok {
		s.RefreshMirror()
	}
	return err
}

// Regroups reports whether the terms reassemble a bitwise symmetric ∆A,
// the symmetric path's condition on the delta.
func Regroups(terms []Rank1Term) bool { return new(scratch).regroup(terms) }
