package bennett

// ForceRescan readies the workspace for dimension n with the exhaustive
// out-of-structure scan switched on: every two-sided step of a static
// update then runs staticExtras, as every build before the counted
// check did, instead of only the steps whose count calls for it. Tests
// hold the two against each other; the flag lasts until the workspace
// meets another dimension.
func (w *Workspace) ForceRescan(n int) { w.grab(n).rescan = true }
