package gen

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/xrand"
)

// PatentConfig parameterizes the patent-citation case-study simulator
// (paper §7: NBER patent data 1975–1999, yearly snapshots, company
// labels, IBM as the analysis subject). One company — RisingCompany —
// is planted with a citation dependency on the subject company that
// strengthens year over year; the case-study pipeline must recover the
// resulting rank climb (the paper's Harris, Figure 11).
type PatentConfig struct {
	Companies      []string // Companies[0] is the subject ("IBM")
	RisingCompany  int      // index of the planted riser ("HARRIS")
	PatentsPerYear int      // patents granted per company per year
	Years          int      // number of yearly snapshots (paper: 21)
	CitesPerPatent int      // citations from each new patent
	SelfCiteProb   float64  // probability a citation stays in-company
	Seed           uint64
}

// DefaultPatentConfig returns a small but structurally faithful setup.
func DefaultPatentConfig() PatentConfig {
	return PatentConfig{
		Companies:      []string{"IBM", "CDC", "HARRIS", "INTEL", "MOTOROLA", "NATIONAL", "SONY", "XEROX"},
		RisingCompany:  2,
		PatentsPerYear: 12,
		Years:          21,
		CitesPerPatent: 5,
		SelfCiteProb:   0.4,
		Seed:           17,
	}
}

// PatentData is the generated case-study dataset: the EGS of yearly
// citation graphs (directed, edges from citing to cited patent) plus
// the company of every patent node and each patent's grant year.
// Patents not yet granted in year y are isolated vertices of snapshot
// y, keeping the vertex set fixed across the sequence as an EGS
// requires.
type PatentData struct {
	EGS       *graph.EGS
	Company   []int    // Company[v] = company index of patent v
	GrantYear []int    // GrantYear[v] = year index when v appears
	Names     []string // company names
}

// PatentSim generates the case-study data. Citations point from newer
// to older patents. Every company mostly cites itself and the subject
// company in fixed proportions — except the riser, whose propensity to
// cite the subject grows linearly with time, planting the Figure-11
// trend.
func PatentSim(cfg PatentConfig) (*PatentData, error) {
	nc := len(cfg.Companies)
	if nc < 2 || cfg.RisingCompany <= 0 || cfg.RisingCompany >= nc ||
		cfg.Years < 2 || cfg.PatentsPerYear < 1 || cfg.CitesPerPatent < 1 {
		return nil, fmt.Errorf("gen: bad patent config %+v", cfg)
	}
	rng := xrand.New(cfg.Seed)
	n := nc * cfg.PatentsPerYear * cfg.Years

	company := make([]int, n)
	grantYear := make([]int, n)
	byCompany := make([][]int, nc) // granted patents so far, per company
	var granted []int              // all granted patents so far

	id := 0
	assign := func(c, year int) int {
		v := id
		id++
		company[v] = c
		grantYear[v] = year
		return v
	}

	var edges []graph.Edge
	snaps := make([]*graph.Graph, 0, cfg.Years)

	for year := 0; year < cfg.Years; year++ {
		riserBias := float64(year) / float64(cfg.Years-1) // 0 → 1 over the window
		for c := 0; c < nc; c++ {
			for p := 0; p < cfg.PatentsPerYear; p++ {
				v := assign(c, year)
				if len(granted) > 0 {
					for cite := 0; cite < cfg.CitesPerPatent; cite++ {
						var pool []int
						switch {
						case c == cfg.RisingCompany:
							// The riser starts inward-looking (low
							// proximity to the subject) and shifts its
							// citations toward the subject over time —
							// the dependency trend Figure 11 surfaces.
							if rng.Float64() < riserBias {
								pool = byCompany[0]
							} else if rng.Float64() < 0.85 {
								pool = byCompany[c]
							} else {
								pool = granted
							}
						case rng.Float64() < cfg.SelfCiteProb:
							pool = byCompany[c]
						default:
							pool = granted
						}
						if len(pool) == 0 {
							pool = granted
						}
						w := pool[rng.Intn(len(pool))]
						if w != v {
							edges = append(edges, graph.Edge{From: v, To: w})
						}
					}
				}
				byCompany[c] = append(byCompany[c], v)
				granted = append(granted, v)
			}
		}
		// graph.New copies what it keeps and orders it per vertex, so the
		// growing citation list is handed over as it is.
		snaps = append(snaps, graph.New(n, true, edges))
	}
	egs, err := graph.NewEGS(snaps)
	if err != nil {
		return nil, err
	}
	return &PatentData{EGS: egs, Company: company, GrantYear: grantYear, Names: cfg.Companies}, nil
}
