package graph

import (
	"fmt"
	"slices"
)

// This file is the edge-delta substrate of the streaming engine: the
// event vocabulary (EdgeEvent), a mutable graph accumulator that applies
// events (Builder), and the diff that turns a pair of snapshots into the
// event batch transforming one into the other. Snapshots are thereby a
// *derived* view: the native input of the pipeline is the event stream,
// and a pre-materialized EGS is replayed by diffing consecutive
// snapshots (see DeltaBatches).

// EdgeOp is the kind of an edge event.
type EdgeOp uint8

// The event vocabulary. The snapshot substrate is unweighted, so
// EdgeUpdate — a weight refresh on the wire — degenerates to an
// idempotent upsert: it inserts the edge when absent and is a no-op
// otherwise. It exists so feeds produced for weighted derivers keep a
// distinct opcode instead of overloading EdgeInsert.
const (
	EdgeInsert EdgeOp = iota // add the edge (no-op when present)
	EdgeDelete               // remove the edge (no-op when absent)
	EdgeUpdate               // assert the edge (insert when absent)
)

// String renders the op in the wire form used by the delta text format
// and the ingest API: "+", "-", "~".
func (op EdgeOp) String() string {
	switch op {
	case EdgeInsert:
		return "+"
	case EdgeDelete:
		return "-"
	case EdgeUpdate:
		return "~"
	}
	return fmt.Sprintf("EdgeOp(%d)", uint8(op))
}

// ParseEdgeOp accepts both the wire form ("+", "-", "~") and the
// spelled-out form ("insert", "delete", "update") of an edge op.
func ParseEdgeOp(s string) (EdgeOp, error) {
	switch s {
	case "+", "insert":
		return EdgeInsert, nil
	case "-", "delete":
		return EdgeDelete, nil
	case "~", "update":
		return EdgeUpdate, nil
	}
	return 0, fmt.Errorf("graph: unknown edge op %q", s)
}

// EdgeEvent is one edge change. For undirected graphs the endpoint
// order is irrelevant (events are canonicalized on application).
type EdgeEvent struct {
	From, To int
	Op       EdgeOp
}

// Builder is a mutable graph accumulator: the live adjacency state of a
// streaming engine, advanced one edge event at a time and materialized
// into immutable snapshots on demand. It keeps what a Graph keeps —
// sorted out-neighbour lists, mirrored for undirected graphs — so a
// snapshot is a copy of list headers and neighbourhoods are direct
// reads.
//
// A stored list is never written again: an edge change replaces the
// lists of the vertices it touches. Snapshots therefore share lists with
// the builder, and the builder can keep, for the price of a header per
// touched vertex, the state its last batch started from (Before, Undo)
// next to the edges that batch changed (Changed).
type Builder struct {
	n        int
	directed bool
	adj      [][]int // adj[u]: sorted out-neighbours, immutable once stored
	inDeg    []int
	edges    int

	// The last batch's journal.
	changed []EdgeEvent // events that changed the edge set, storage orientation, in order
	touched []int       // vertices whose list it replaced, in first-touch order
	before  [][]int     // before[k]: touched[k]'s list when the batch began
	slot    []int       // slot[u] = k when touched[k] == u, else -1
}

// NewBuilder returns an empty builder on n vertices.
func NewBuilder(n int, directed bool) *Builder {
	return NewBuilderFrom(New(n, directed, nil))
}

// NewBuilderFrom seeds a builder with a snapshot's edge set.
func NewBuilderFrom(g *Graph) *Builder {
	b := &Builder{
		n: g.n, directed: g.directed, edges: g.edges,
		adj:   slices.Clone(g.adj),
		inDeg: slices.Clone(g.inDeg),
		slot:  make([]int, g.n),
	}
	for u := range b.slot {
		b.slot[u] = -1
	}
	return b
}

// N returns the vertex count.
func (b *Builder) N() int { return b.n }

// Directed reports whether the builder accumulates a directed graph.
func (b *Builder) Directed() bool { return b.directed }

// NumEdges returns the current edge count (undirected edges counted
// once).
func (b *Builder) NumEdges() int { return b.edges }

// OutNeighbors returns the sorted out-neighbour list of u (every
// neighbour, if undirected). The slice must not be modified.
func (b *Builder) OutNeighbors(u int) []int { return b.adj[u] }

// canon maps an endpoint pair to storage orientation.
func (b *Builder) canon(u, v int) (int, int) {
	if !b.directed && v < u {
		return v, u
	}
	return u, v
}

// Has reports whether the edge (u, v) is currently present.
func (b *Builder) Has(u, v int) bool {
	_, ok := slices.BinarySearch(b.adj[u], v)
	return ok
}

// splice makes v a member of u's list, or not, and reports whether the
// list changed. The first change of a batch to u's list remembers the
// list the batch started from.
func (b *Builder) splice(u, v int, present bool) bool {
	old := b.adj[u]
	k, found := slices.BinarySearch(old, v)
	if found == present {
		return false
	}
	var list []int // stays nil when the last neighbour goes, as New leaves an isolated vertex
	if present {
		list = make([]int, 0, len(old)+1)
		list = append(append(append(list, old[:k]...), v), old[k:]...)
		b.inDeg[v]++
	} else {
		if len(old) > 1 {
			list = make([]int, 0, len(old)-1)
			list = append(append(list, old[:k]...), old[k+1:]...)
		}
		b.inDeg[v]--
	}
	if b.slot[u] < 0 {
		b.slot[u] = len(b.touched)
		b.touched = append(b.touched, u)
		b.before = append(b.before, old)
	}
	b.adj[u] = list
	return true
}

// set makes the edge (u, v) present or absent and reports whether that
// changed the edge set.
func (b *Builder) set(u, v int, present bool) bool {
	u, v = b.canon(u, v)
	if !b.splice(u, v, present) {
		return false
	}
	if !b.directed {
		b.splice(v, u, present)
	}
	op, step := EdgeDelete, -1
	if present {
		op, step = EdgeInsert, 1
	}
	b.edges += step
	b.changed = append(b.changed, EdgeEvent{From: u, To: v, Op: op})
	return true
}

// begin opens a new batch: the previous batch's journal is dropped.
func (b *Builder) begin() {
	for _, u := range b.touched {
		b.slot[u] = -1
	}
	clear(b.before) // let go of the replaced lists
	b.changed, b.touched, b.before = b.changed[:0], b.touched[:0], b.before[:0]
}

// check validates an event's endpoints. Self-loops are legal input but
// never stored (Graph drops them too), so they are reported as
// applicable no-ops rather than errors.
func (b *Builder) check(ev EdgeEvent) error {
	if ev.From < 0 || ev.From >= b.n || ev.To < 0 || ev.To >= b.n {
		return fmt.Errorf("graph: event %v (%d,%d) out of range [0,%d)", ev.Op, ev.From, ev.To, b.n)
	}
	switch ev.Op {
	case EdgeInsert, EdgeDelete, EdgeUpdate:
		return nil
	}
	return fmt.Errorf("graph: event (%d,%d) has unknown op %d", ev.From, ev.To, uint8(ev.Op))
}

// apply advances the builder by one checked event inside the open
// batch.
func (b *Builder) apply(ev EdgeEvent) bool {
	if ev.From == ev.To {
		return false
	}
	return b.set(ev.From, ev.To, ev.Op != EdgeDelete) // EdgeUpdate upserts
}

// Apply advances the builder by one event — a batch of one — and
// reports whether the edge set actually changed (inserting a present
// edge, deleting an absent one, and self-loops are no-ops). The builder
// is unchanged on error.
func (b *Builder) Apply(ev EdgeEvent) (bool, error) {
	if err := b.check(ev); err != nil {
		return false, err
	}
	b.begin()
	return b.apply(ev), nil
}

// ValidateBatch checks every event against the builder's vertex range
// and the op vocabulary without mutating anything — the write-ahead
// path of the streaming engine validates before logging so a batch that
// can never apply is rejected before it is made durable.
func (b *Builder) ValidateBatch(events []EdgeEvent) error {
	for _, ev := range events {
		if err := b.check(ev); err != nil {
			return err
		}
	}
	return nil
}

// ApplyBatch validates every event first and then applies them in
// order, so a malformed batch leaves the builder untouched. It returns
// the number of events that changed the edge set; Changed lists them.
func (b *Builder) ApplyBatch(events []EdgeEvent) (int, error) {
	if err := b.ValidateBatch(events); err != nil {
		return 0, err
	}
	b.begin()
	for _, ev := range events {
		b.apply(ev)
	}
	return len(b.changed), nil
}

// Changed returns the events of the last batch (ApplyBatch, or Apply's
// batch of one) that changed the edge set, in order and in storage
// orientation, as EdgeInsert or EdgeDelete. An edge the batch inserted
// and deleted again appears twice. The slice is valid until the next
// batch.
func (b *Builder) Changed() []EdgeEvent { return b.changed }

// Before returns the state the last batch started from, valid until the
// next batch: together with the builder itself, the two sides of the
// batch's delta.
func (b *Builder) Before() Adjacency { return beforeBatch{b} }

type beforeBatch struct{ b *Builder }

func (v beforeBatch) N() int         { return v.b.n }
func (v beforeBatch) Directed() bool { return v.b.directed }
func (v beforeBatch) OutNeighbors(u int) []int {
	if k := v.b.slot[u]; k >= 0 {
		return v.b.before[k]
	}
	return v.b.adj[u]
}

// Undo takes the last batch back: the builder is again what Before
// describes, with an empty journal.
func (b *Builder) Undo() {
	for k, u := range b.touched {
		b.adj[u] = b.before[k]
	}
	for _, ev := range b.changed {
		step := 1
		if ev.Op == EdgeInsert {
			step = -1
		}
		b.edges += step
		b.inDeg[ev.To] += step
		if !b.directed {
			b.inDeg[ev.From] += step
		}
	}
	b.begin()
}

// Graph materializes the current edge set into an immutable snapshot.
// The result is identical (ordering included) to constructing the same
// edge set via New, so matrices derived from streamed state are
// bit-identical to matrices derived from pre-built snapshots. The
// snapshot shares the builder's neighbour lists, which nothing writes.
func (b *Builder) Graph() *Graph {
	return &Graph{
		n: b.n, directed: b.directed, edges: b.edges,
		adj:   slices.Clone(b.adj),
		inDeg: slices.Clone(b.inDeg),
	}
}

// Diff returns the edge events that transform prev into next: deletes
// for edges only in prev, inserts for edges only in next, in
// deterministic row-major order. Applying the result to a builder
// seeded with prev yields exactly next. Both snapshots must share
// vertex count and directedness.
func Diff(prev, next *Graph) []EdgeEvent {
	if prev.N() != next.N() {
		panic(fmt.Sprintf("graph: Diff dimension mismatch %d vs %d", prev.N(), next.N()))
	}
	if prev.Directed() != next.Directed() {
		panic("graph: Diff directedness mismatch")
	}
	var out []EdgeEvent
	emit := func(u, v int, op EdgeOp) {
		if prev.Directed() || u < v {
			out = append(out, EdgeEvent{From: u, To: v, Op: op})
		}
	}
	for u := 0; u < prev.N(); u++ {
		a, b := prev.OutNeighbors(u), next.OutNeighbors(u)
		ka, kb := 0, 0
		for ka < len(a) || kb < len(b) {
			switch {
			case kb >= len(b) || (ka < len(a) && a[ka] < b[kb]):
				emit(u, a[ka], EdgeDelete)
				ka++
			case ka >= len(a) || b[kb] < a[ka]:
				emit(u, b[kb], EdgeInsert)
				kb++
			default:
				ka++
				kb++
			}
		}
	}
	return out
}

// DeltaBatches diffs the consecutive snapshots of an EGS into per-step
// event batches: batch t-1 transforms snapshot t-1 into snapshot t
// (length T-1). Together with the first snapshot this is the streaming
// engine's native representation of the sequence.
func DeltaBatches(s *EGS) [][]EdgeEvent {
	out := make([][]EdgeEvent, 0, s.Len()-1)
	for t := 1; t < s.Len(); t++ {
		out = append(out, Diff(s.Snapshots[t-1], s.Snapshots[t]))
	}
	return out
}
