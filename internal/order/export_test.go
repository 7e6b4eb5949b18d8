package order

// Test-only doors to the elimination's choice of representation: the
// dense-phase tests hold every switch point against the list phase and
// the no-shortcut reference.

// switchAt is a policy that moves to the dense phase at the first step
// with at most m live vertices, whatever the density.
func switchAt(m int) func(live, entries int) bool {
	return func(live, _ int) bool { return live <= m }
}

// neverDense is the policy that keeps the whole elimination on lists.
func neverDense(int, int) bool { return false }
