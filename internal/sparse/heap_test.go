package sparse

import (
	"sort"
	"testing"

	"repro/internal/xrand"
)

type heapKey struct{ a, b int }

func (x heapKey) Less(y heapKey) bool {
	if x.a != y.a {
		return x.a < y.a
	}
	return x.b < y.b
}

// TestMinHeapPopsInOrder interleaves Init, Push and Pop and holds the
// popped sequence against a sorted copy.
func TestMinHeapPopsInOrder(t *testing.T) {
	rng := xrand.New(321)
	for trial := 0; trial < 50; trial++ {
		var h MinHeap[heapKey]
		var all []heapKey
		for k := rng.Intn(20); k > 0; k-- {
			x := heapKey{rng.Intn(6), rng.Intn(6)}
			h, all = append(h, x), append(all, x)
		}
		h.Init()
		var popped []heapKey
		for step := rng.Intn(60); step > 0 || len(h) > 0; step-- {
			if step > 0 && rng.Intn(3) > 0 {
				x := heapKey{rng.Intn(6), rng.Intn(6)}
				h.Push(x)
				all = append(all, x)
				continue
			}
			if len(h) == 0 {
				continue
			}
			// Whatever is popped must be the minimum of what is in.
			x := h.Pop()
			for _, y := range h {
				if y.Less(x) {
					t.Fatalf("trial %d: popped %v while %v was in the heap", trial, x, y)
				}
			}
			popped = append(popped, x)
		}
		if len(popped) != len(all) {
			t.Fatalf("trial %d: popped %d of %d", trial, len(popped), len(all))
		}
		sort.Slice(all, func(i, j int) bool { return all[i].Less(all[j]) })
		sort.Slice(popped, func(i, j int) bool { return popped[i].Less(popped[j]) })
		for i := range all {
			if all[i] != popped[i] {
				t.Fatalf("trial %d: element %d lost: %v vs %v", trial, i, popped[i], all[i])
			}
		}
	}
}
