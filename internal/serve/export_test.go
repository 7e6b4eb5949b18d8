package serve

import "testing"

// setSpillKeep lowers the spill directory's retention bound for one
// test; engines started after the call use it.
func setSpillKeep(t testing.TB, n int) {
	old := spillKeep
	spillKeep = n
	t.Cleanup(func() { spillKeep = old })
}
