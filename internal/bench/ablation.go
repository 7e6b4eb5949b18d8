package bench

import (
	"fmt"
	"time"

	"repro/internal/lu"
	"repro/internal/order"
	"repro/internal/sparse"
)

// Ablation quantifies the design choices docs/ALGORITHMS.md
// ("Ablations") describes, on one representative Wiki snapshot matrix:
//
//   - ordering quality: Natural vs RCM vs MinDegree-flavoured
//     Markowitz, measured as |s̃p(A^O)| and full-LU wall time;
//   - the USSP slack: how much larger a cluster-wide static structure
//     is than the tight per-matrix structure.
func Ablation(d Datasets) ([]*Table, error) {
	_, ems, err := wikiEMS(d)
	if err != nil {
		return nil, err
	}
	a := ems.Matrices[ems.Len()/2]
	p := a.Pattern()

	type cand struct {
		name string
		res  order.Result
	}
	cands := []cand{
		{"natural", order.Natural(p)},
		{"RCM", order.RCM(p)},
		{"Markowitz", order.Markowitz(p)},
	}
	tbl := &Table{
		Title:  fmt.Sprintf("Ordering ablation on one Wiki matrix (n=%d, nnz=%d)", a.N(), a.NNZ()),
		Header: []string{"ordering", "|s̃p(A^O)|", "fill ratio", "full LU time"},
	}
	base := cands[0].res.SSPSize
	for _, c := range cands {
		t0 := time.Now()
		if _, err := lu.FactorizeOrdered(a, c.res.Ordering); err != nil {
			return nil, fmt.Errorf("bench: ablation %s: %w", c.name, err)
		}
		el := time.Since(t0)
		tbl.Rows = append(tbl.Rows, []string{
			c.name,
			fmt.Sprint(c.res.SSPSize),
			f(float64(c.res.SSPSize) / float64(base)),
			dur(el),
		})
	}

	// USSP slack: union structure of a whole α-cluster vs the tight
	// structure of its first member.
	pats := make([]*sparse.Pattern, ems.Len())
	for i, m := range ems.Matrices {
		pats[i] = m.Pattern()
	}
	union := pats[0]
	members := 1
	for i := 1; i < len(pats); i++ {
		cu := union.Union(pats[i])
		inter := pats[0]
		for k := 1; k <= i; k++ {
			inter = inter.Intersect(pats[k])
		}
		if sparse.MES(inter, cu) < 0.95 {
			break
		}
		union = cu
		members = i + 1
	}
	ord := order.Markowitz(union)
	ussp := ord.SSPSize // the union was just ordered: its elimination is the USSP
	tight := lu.SymbolicSize(pats[0], ord.Ordering)
	slack := &Table{
		Title:  fmt.Sprintf("USSP slack for the first alpha=0.95 cluster (%d members)", members),
		Header: []string{"structure", "|s̃p|", "vs tight"},
		Rows: [][]string{
			{"tight (first member)", fmt.Sprint(tight), "1"},
			{"USSP (cluster union)", fmt.Sprint(ussp), f(float64(ussp) / float64(tight))},
		},
	}
	return []*Table{tbl, slack}, nil
}
