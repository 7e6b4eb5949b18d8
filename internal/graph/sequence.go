package graph

import (
	"fmt"
	"sync"

	"repro/internal/sparse"
)

// DeltaSequence is the matrix sequence of an event stream: the first
// snapshot, the per-step event batches that carry it forward
// (DeltaBatches' shape) and a Deriver. It holds no snapshot but the
// first and no matrix at all: Matrix(i) advances one Builder to step i
// and derives A_i there, replaying from the first snapshot when i lies
// behind the builder. A Builder's state derives bit for bit like the
// snapshot with its edge set, so the matrices are DeriveEMS's.
//
// Reading front to back applies every batch once; each earlier index
// costs a replay from the start.
type DeltaSequence struct {
	first   *Graph
	batches [][]EdgeEvent
	d       Deriver

	mu sync.Mutex // guards b and at: Matrix may be called concurrently
	b  *Builder
	at int // the step b stands at
}

// NewDeltaSequence returns the sequence of len(batches)+1 matrices that
// d derives from first and the states batches[0], batches[1], … lead
// it through. Every event is checked against first's vertex range and
// the op vocabulary here, so Matrix never meets a bad one. The batches
// are read, never modified, and must stay unmodified.
func NewDeltaSequence(first *Graph, batches [][]EdgeEvent, d Deriver) (*DeltaSequence, error) {
	b := NewBuilderFrom(first)
	for t, batch := range batches {
		if err := b.ValidateBatch(batch); err != nil {
			return nil, fmt.Errorf("graph: batch %d: %w", t, err)
		}
	}
	return &DeltaSequence{first: first, batches: batches, d: d, b: b}, nil
}

// Len returns the number of matrices T.
func (s *DeltaSequence) Len() int { return len(s.batches) + 1 }

// N returns the shared dimension.
func (s *DeltaSequence) N() int { return s.first.N() }

// Matrix derives A_i.
func (s *DeltaSequence) Matrix(i int) *sparse.CSR {
	if i < 0 || i >= s.Len() {
		panic(fmt.Sprintf("graph: matrix %d outside [0, %d)", i, s.Len()))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if i < s.at {
		s.b, s.at = NewBuilderFrom(s.first), 0
	}
	for ; s.at < i; s.at++ {
		if _, err := s.b.ApplyBatch(s.batches[s.at]); err != nil {
			panic(err) // NewDeltaSequence checked every event
		}
	}
	return Derive(s.d, s.b)
}
