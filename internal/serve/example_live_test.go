package serve_test

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/serve"
)

// ExampleEngine_AttachLive wires a streaming maintenance engine into
// the serving layer: latest-state queries (Snapshot: -1) answer from
// the stream's current factors with zero copying, and every committed
// batch is immediately visible to the next query.
func ExampleEngine_AttachLive() {
	g0 := graph.New(5, false, []graph.Edge{
		{From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 3}, {From: 3, To: 4},
	})
	stream, err := core.NewStream(core.StreamConfig{
		Initial: g0,
		Derive:  graph.RWRMatrix(0.85),
	})
	if err != nil {
		panic(err)
	}
	defer stream.Close()

	eng := serve.New(serve.Config{Damping: 0.85, Workers: 1})
	defer eng.Close()
	eng.AttachLive(stream)

	q := serve.Query{Snapshot: -1, Measure: serve.MeasureTopK, Source: 0, K: 2}
	resp, err := eng.Query(context.Background(), q)
	if err != nil {
		panic(err)
	}
	fmt.Printf("version %d live=%v top-2 from node 0: %v\n", resp.Version, resp.Live, resp.Nodes)

	// One committed batch later, the same query sees the new graph.
	if _, err := stream.Apply([]graph.EdgeEvent{{From: 0, To: 3, Op: graph.EdgeInsert}}); err != nil {
		panic(err)
	}
	resp, err = eng.Query(context.Background(), q)
	if err != nil {
		panic(err)
	}
	fmt.Printf("version %d live=%v top-2 from node 0: %v\n", resp.Version, resp.Live, resp.Nodes)

	// Output:
	// version 0 live=true top-2 from node 0: [1 0]
	// version 1 live=true top-2 from node 0: [0 3]
}
