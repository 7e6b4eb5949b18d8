package graph

import (
	"fmt"
	"sync"

	"repro/internal/sparse"
)

// DeltaSequence is the matrix sequence of an event stream: the first
// snapshot, the per-step event batches that carry it forward and a
// Deriver. It holds no snapshot but the first and no matrix at all: one
// Builder advances through the batches, Matrix(i) derives A_i whole
// where the builder stands at step i, and Step(i) diffs only the
// columns batch i−1 dirtied (BatchDelta), so a step costs what it
// changed. A Builder's state derives bit for bit like the snapshot with
// its edge set, so the matrices are DeriveEMS's and the steps are Diff's
// of them. A batch may list any events that lead one state to the next:
// the generator's own events (gen.WikiEvents) or a diff of two
// snapshots (DeltaBatches).
//
// Reading front to back applies every batch once; each earlier index
// replays the batches from the first snapshot.
type DeltaSequence struct {
	first   *Graph
	batches [][]EdgeEvent
	d       Deriver

	mu sync.Mutex // guards b, at and ws: Matrix and Step may be called concurrently
	b  *Builder
	at int // the step b stands at, reached by applying batch at−1 last
	ws DeltaWorkspace
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
	s.advance(i)
	return Derive(s.d, s.b)
}

// Step fills d with A_i − A_{i−1} from the columns batch i−1 dirties:
// the builder stands at step i with that batch as its last, so its
// journal holds both sides of the step.
func (s *DeltaSequence) Step(i int, d *sparse.StepDelta) {
	if i < 1 || i >= s.Len() {
		panic(fmt.Sprintf("graph: step %d outside [1, %d)", i, s.Len()))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.advance(i)
	BatchDelta(d, s.d, s.b, &s.ws)
}

// advance brings the builder to step i, replaying from the first
// snapshot when i lies behind it. Callers hold mu.
func (s *DeltaSequence) advance(i int) {
	if i < s.at {
		s.b, s.at = NewBuilderFrom(s.first), 0
	}
	for ; s.at < i; s.at++ {
		if _, err := s.b.ApplyBatch(s.batches[s.at]); err != nil {
			panic(err) // NewDeltaSequence checked every event
		}
	}
}
