package store

import "testing"

// setKeepSnapshots sets how many checkpoints a store retains for one
// test; stores opened after the call use it.
func setKeepSnapshots(t testing.TB, n int) {
	old := keepSnapshots
	keepSnapshots = n
	t.Cleanup(func() { keepSnapshots = old })
}

// setSegmentBytes sets the record logs' rotation threshold for one
// test; stores opened after the call use it.
func setSegmentBytes(t testing.TB, n int64) {
	old := segmentBytes
	segmentBytes = n
	t.Cleanup(func() { segmentBytes = old })
}
