package sparse

// MinHeap is a binary min-heap kept in a typed slice: what
// container/heap does, without boxing every element into an interface
// on its way in and out. The ordering's elimination pushes and pops
// millions of small pivot candidates, which is where the boxing showed.
type MinHeap[T interface{ Less(T) bool }] []T

// Init establishes the heap order over whatever the slice holds.
func (h MinHeap[T]) Init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// Push adds x.
func (h *MinHeap[T]) Push(x T) {
	*h = append(*h, x)
	s := *h
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if !s[i].Less(s[p]) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

// Pop removes and returns the smallest element; the heap must not be
// empty.
func (h *MinHeap[T]) Pop() T {
	s := *h
	x := s[0]
	n := len(s) - 1
	s[0] = s[n]
	*h = s[:n]
	(*h).down(0)
	return x
}

// ReplaceMin overwrites the smallest element with x and restores the
// heap order: a Pop followed by a Push in one sift. The heap must not
// be empty.
func (h MinHeap[T]) ReplaceMin(x T) {
	h[0] = x
	h.down(0)
}

func (h MinHeap[T]) down(i int) {
	n := len(h)
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if c+1 < n && h[c+1].Less(h[c]) {
			c++
		}
		if !h[c].Less(h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}
