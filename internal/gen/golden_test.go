package gen

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/graph"
)

func hashInt(h hash.Hash64, v int) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	h.Write(b[:])
}

// egsHash covers every snapshot's vertex count, directedness and sorted
// adjacency lists.
func egsHash(egs *graph.EGS) uint64 {
	h := fnv.New64a()
	for _, g := range egs.Snapshots {
		hashInt(h, g.N())
		if g.Directed() {
			hashInt(h, 1)
		}
		hashInt(h, g.NumEdges())
		for u := 0; u < g.N(); u++ {
			hashInt(h, g.InDegree(u))
			hashInt(h, -1)
			for _, v := range g.OutNeighbors(u) {
				hashInt(h, v)
			}
		}
	}
	return h.Sum64()
}

// emsHash covers the raw CSR arrays — row pointers, column indices and
// the bits of every value — of each derived matrix.
func emsHash(ems *graph.EMS) uint64 {
	h := fnv.New64a()
	for _, a := range ems.Matrices {
		rowPtr, colIdx, vals := a.Arrays()
		for _, v := range rowPtr {
			hashInt(h, v)
		}
		for _, v := range colIdx {
			hashInt(h, v)
		}
		for _, v := range vals {
			hashInt(h, int(math.Float64bits(v)))
		}
	}
	return h.Sum64()
}

// goldenDatasets holds {egsHash, emsHash of the walk matrices, emsHash
// of the Laplacians (undirected only)} per dataset of TestGoldenDatasets.
var goldenDatasets = map[string][3]uint64{
	"wiki/7":    {0x1dde239eca3d60cb, 0xceb0dac7c5b8c3da, 0},
	"wiki/1234": {0x8360375fd8fbb3f3, 0x5a6e29efb86c313c, 0},
	"dblp/11":   {0x693ca7a074414e06, 0x1a680712d24faf7c, 0x3fcfc404424b605f},
	"dblp/4321": {0xad475e852718ac9c, 0x93366e00c58d1e8, 0xa9dfc4f5748b156},
	"patent/17": {0xf467573d58ecd7b3, 0xa671b493a2650a24, 0},
	"patent/99": {0x69229d6212efc104, 0x7634bdc93f1603b5, 0},
}

// TestGoldenDatasets pins the generated graph sequences and their
// derived matrix sequences, two seeds per generator, to hashes recorded
// before the dataset path was made cheaper (no per-day edge sort in the
// generators, counted adjacency in graph.New, presized and sort-skipping
// matrix assembly): the benchmark's seeds must keep naming the same
// datasets, or no before/after comparison means anything.
func TestGoldenDatasets(t *testing.T) {
	check := func(name string, egs *graph.EGS, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := [3]uint64{egsHash(egs)}
		if egs.Snapshots[0].Directed() {
			got[1] = emsHash(graph.DeriveEMS(egs, graph.RWRMatrix(0.85)))
		} else {
			got[1] = emsHash(graph.DeriveEMS(egs, graph.SymmetricWalkMatrix(0.85)))
			got[2] = emsHash(graph.DeriveEMS(egs, graph.LaplacianMatrix(0.5)))
		}
		if want := goldenDatasets[name]; got != want {
			t.Errorf("%q: {%#x, %#x, %#x}, golden {%#x, %#x, %#x}", name, got[0], got[1], got[2], want[0], want[1], want[2])
		}
	}
	for _, seed := range []uint64{7, 1234} {
		egs, err := WikiSim(WikiConfig{N: 300, T: 20, InitialEdges: 840, FinalEdges: 1300, ChurnFrac: 0.25, EventRate: 0.2, Seed: seed})
		check(fmt.Sprint("wiki/", seed), egs, err)
	}
	for _, seed := range []uint64{11, 4321} {
		egs, err := DBLPSim(DBLPConfig{N: 300, T: 20, Communities: 3, InitialPapers: 260, PapersPerDay: 2, MaxCoauthors: 4, CrossCommunity: 0.05, Seed: seed})
		check(fmt.Sprint("dblp/", seed), egs, err)
	}
	for _, seed := range []uint64{17, 99} {
		cfg := DefaultPatentConfig()
		cfg.PatentsPerYear, cfg.Years, cfg.Seed = 4, 8, seed
		pd, err := PatentSim(cfg)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprint("patent/", seed), pd.EGS, nil)
	}
}

// goldenEGSBytes holds the sha256 of graph.WriteEGS's bytes per
// generator and scale of TestGoldenEGSBytes.
var goldenEGSBytes = map[string]string{
	"wiki/tiny":       "94728980a53fefd15e4964204723cf4d50db69c13bc80b4becfd7a4b95cdb095",
	"dblp/tiny":       "73a87954a0e60e67fd15dfe816fc478e660cbc7d88dd45e666cc00aeb4417d2d",
	"synthetic/tiny":  "da9b53840fdd81892584e2c1d84491846cf9572cea334e5435e552fb74062c38",
	"patent/tiny":     "de9465d59ccc62c170b963440e21df0e268ed05d999da091137d76e5157db044",
	"wiki/small":      "22bf44a684a465dbbbada76c6e77b4233d6fe69679ec741f3b1789f94a7ea94b",
	"dblp/small":      "0dcda024b01098b9505f00f74bb206b79300b90f0f8746b8155fcd83044fa0ae",
	"synthetic/small": "ce9e84ef5f7ae975f20725e669077d3eb52f8c69b71d87e3b02e6b58c9f09043",
	"patent/small":    "96989651e38aded67cb9c9a6464ea99bbfc9b592c5bab829f4a617b1445417b6",
}

// TestGoldenEGSBytes pins every generator's sequence, as the egs text
// format writes it, at the tiny and small scales: however a generator
// assembles its snapshots, the bytes it hands on must not move.
func TestGoldenEGSBytes(t *testing.T) {
	for _, s := range []Scale{Tiny, Small} {
		c, err := ConfigsFor(s)
		if err != nil {
			t.Fatal(err)
		}
		wiki, err := WikiSim(c.Wiki)
		if err != nil {
			t.Fatal(err)
		}
		dblp, err := DBLPSim(c.DBLP)
		if err != nil {
			t.Fatal(err)
		}
		syn, err := Synthetic(c.Synthetic)
		if err != nil {
			t.Fatal(err)
		}
		pat, err := PatentSim(c.Patent)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range []struct {
			name string
			egs  *graph.EGS
		}{{"wiki", wiki}, {"dblp", dblp}, {"synthetic", syn}, {"patent", pat.EGS}} {
			h := sha256.New()
			if err := graph.WriteEGS(h, d.egs); err != nil {
				t.Fatal(err)
			}
			key := fmt.Sprintf("%s/%s", d.name, s)
			if got := hex.EncodeToString(h.Sum(nil)); got != goldenEGSBytes[key] {
				t.Errorf("%s: WriteEGS sha256 %s, golden %s", key, got, goldenEGSBytes[key])
			}
		}
	}
}
