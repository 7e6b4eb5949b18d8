// Package bench is the experiment harness: one entry point per table
// or figure of the paper's evaluation (§6–§7), each regenerating the
// corresponding data series on the simulated datasets. The harness is
// shared by cmd/cludebench (human-readable tables) and the repository's
// Go benchmarks.
package bench

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
)

// Datasets is what an experiment runs on: the generator configurations
// of one scale (gen.ConfigsFor) and the sweeps the figures plot.
type Datasets struct {
	gen.Configs
	// Alphas is the similarity-threshold sweep of Figures 6–8;
	// Betas the quality-requirement sweep of Figure 10; DeltaEs the
	// edge-churn sweep of Figure 9.
	Alphas  []float64
	Betas   []float64
	DeltaEs []int
	Damping float64
	// Workers is the engine pool size every experiment passes to
	// core.Options. The default 1 keeps the timing experiments
	// paper-faithful (the paper's prototype is sequential); the
	// dedicated "parallel" experiment sweeps pool sizes regardless.
	Workers int
}

// DatasetsFor returns the generator configurations for a scale with
// the scale's sweeps around them.
func DatasetsFor(s gen.Scale) (Datasets, error) {
	c, err := gen.ConfigsFor(s)
	if err != nil {
		return Datasets{}, err
	}
	d := Datasets{
		Configs: c,
		Alphas:  []float64{0.90, 0.92, 0.94, 0.96, 0.98, 0.99},
		Betas:   []float64{0.02, 0.05, 0.10, 0.15, 0.20, 0.30},
		Damping: 0.85,
		Workers: 1,
	}
	switch s {
	case gen.Tiny:
		d.Alphas = []float64{0.9, 0.97}
		d.Betas = []float64{0.05, 0.2}
		d.DeltaEs = []int{5, 10}
	case gen.Small:
		d.DeltaEs = []int{5, 10, 15, 20, 25}
	case gen.Medium:
		d.DeltaEs = []int{8, 16, 24, 32, 40}
	case gen.Paper:
		d.DeltaEs = []int{300, 400, 500, 600, 700}
	}
	return d, nil
}

// Table is a printable result: the rows a figure plots or a table
// lists. The JSON tags define the schema of the BENCH_*.json CI
// artifacts (see json.go).
type Table struct {
	Title  string     `json:"title"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "\n== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
}

// f formats a float compactly for table cells.
func f(v float64) string { return fmt.Sprintf("%.4g", v) }

// dur formats a duration in milliseconds for table cells.
func dur(d time.Duration) string { return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000) }

// wikiEMS generates the Wikipedia-like EMS (directed RWR matrices).
func wikiEMS(d Datasets) (*graph.EGS, *graph.EMS, error) {
	egs, err := gen.WikiSim(d.Wiki)
	if err != nil {
		return nil, nil, err
	}
	return egs, graph.DeriveEMS(egs, graph.RWRMatrix(d.Damping)), nil
}

// dblpEMS generates the DBLP-like EMS (symmetric matrices).
func dblpEMS(d Datasets) (*graph.EGS, *graph.EMS, error) {
	egs, err := gen.DBLPSim(d.DBLP)
	if err != nil {
		return nil, nil, err
	}
	return egs, graph.DeriveEMS(egs, graph.SymmetricWalkMatrix(d.Damping)), nil
}
