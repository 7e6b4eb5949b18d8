package gen

import "fmt"

// Scale selects dataset sizes. Tiny finishes in well under a second
// (tests, go test -bench); Small in seconds; Medium is the generators'
// defaults, about a tenth of the paper's dimensions; Paper approaches
// them and is only practical on a beefy machine with patience.
type Scale string

// The predefined scales.
const (
	Tiny   Scale = "tiny"
	Small  Scale = "small"
	Medium Scale = "medium"
	Paper  Scale = "paper"
)

// Configs bundles the generator configurations for one scale.
type Configs struct {
	Wiki      WikiConfig
	DBLP      DBLPConfig
	Synthetic SyntheticConfig
	Patent    PatentConfig
}

// ConfigsFor returns the generator configurations for a scale.
func ConfigsFor(s Scale) (Configs, error) {
	var c Configs
	switch s {
	case Tiny:
		c.Wiki = WikiConfig{N: 150, T: 10, InitialEdges: 420, FinalEdges: 465, ChurnFrac: 0.25, EventRate: 0.05, Seed: 7}
		c.DBLP = DBLPConfig{N: 150, T: 10, Communities: 3, InitialPapers: 130, PapersPerDay: 1, MaxCoauthors: 4, CrossCommunity: 0.05, Seed: 11}
		c.Synthetic = SyntheticConfig{V: 150, EP: 1350, D: 5, K: 4, DeltaE: 5, T: 10, Seed: 1}
		c.Patent = PatentConfig{Companies: DefaultPatentConfig().Companies, RisingCompany: 2, PatentsPerYear: 4, Years: 8, CitesPerPatent: 5, SelfCiteProb: 0.4, Seed: 17}
	case Small:
		c.Wiki = WikiConfig{N: 600, T: 80, InitialEdges: 1700, FinalEdges: 3000, ChurnFrac: 0.25, EventRate: 0.05, Seed: 7}
		c.DBLP = DBLPConfig{N: 600, T: 80, Communities: 3, InitialPapers: 500, PapersPerDay: 2, MaxCoauthors: 4, CrossCommunity: 0.05, Seed: 11}
		c.Synthetic = SyntheticConfig{V: 600, EP: 5400, D: 5, K: 4, DeltaE: 10, T: 60, Seed: 1}
		c.Patent = PatentConfig{Companies: DefaultPatentConfig().Companies, RisingCompany: 2, PatentsPerYear: 6, Years: 21, CitesPerPatent: 5, SelfCiteProb: 0.4, Seed: 17}
	case Medium:
		c.Wiki = DefaultWikiConfig()
		c.DBLP = DefaultDBLPConfig()
		c.Synthetic = DefaultSyntheticConfig()
		c.Patent = DefaultPatentConfig()
	case Paper:
		c.Wiki = WikiConfig{N: 20000, T: 1000, InitialEdges: 56181, FinalEdges: 138072, ChurnFrac: 0.25, EventRate: 0.02, Seed: 7}
		c.DBLP = DBLPConfig{N: 97931, T: 1000, Communities: 3, InitialPapers: 130000, PapersPerDay: 55, MaxCoauthors: 4, CrossCommunity: 0.05, Seed: 11}
		c.Synthetic = SyntheticConfig{V: 50000, EP: 450000, D: 5, K: 4, DeltaE: 500, T: 500, Seed: 1}
		c.Patent = PatentConfig{Companies: DefaultPatentConfig().Companies, RisingCompany: 2, PatentsPerYear: 600, Years: 21, CitesPerPatent: 6, SelfCiteProb: 0.4, Seed: 17}
	default:
		return c, fmt.Errorf("gen: unknown scale %q", s)
	}
	return c, nil
}
