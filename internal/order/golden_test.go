package order

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/sparse"
	"repro/internal/xrand"
)

// orderingHash folds a result's pivot sequence and SSPSize into one
// FNV-1a word: equal hashes mean the same elimination, step for step.
func orderingHash(r Result) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range r.Ordering.Row {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	binary.LittleEndian.PutUint64(b[:], uint64(r.SSPSize))
	h.Write(b[:])
	return h.Sum64()
}

// unionPattern is the cluster-union pattern CLUDE orders by: the union
// of every snapshot's matrix pattern.
func unionPattern(t *testing.T, egs *graph.EGS, err error, derive graph.Deriver) *sparse.Pattern {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	u := graph.Derive(derive, egs.Snapshots[0]).Pattern()
	for _, g := range egs.Snapshots[1:] {
		u = u.Union(graph.Derive(derive, g).Pattern())
	}
	return u
}

// goldenPatterns are the inputs of the golden ordering table: 32 seeded
// random patterns (odd ones symmetric), then a Wiki-like directed and a
// DBLP-like symmetric cluster union.
func goldenPatterns(t *testing.T) []*sparse.Pattern {
	var ps []*sparse.Pattern
	for s := 0; s < 32; s++ {
		rng := xrand.New(uint64(700 + s))
		n := 20 + rng.Intn(180)
		ps = append(ps, randomPattern(rng, n, n*(1+rng.Intn(4)), s%2 == 1))
	}
	wiki, err := gen.WikiSim(gen.WikiConfig{N: 400, T: 12, InitialEdges: 1100, FinalEdges: 1400, ChurnFrac: 0.25, EventRate: 0.05, Seed: 7})
	ps = append(ps, unionPattern(t, wiki, err, graph.RWRMatrix(0.85)))
	dblp, err := gen.DBLPSim(gen.DBLPConfig{N: 400, T: 12, Communities: 3, InitialPapers: 330, PapersPerDay: 2, MaxCoauthors: 4, CrossCommunity: 0.05, Seed: 11})
	ps = append(ps, unionPattern(t, dblp, err, graph.SymmetricWalkMatrix(0.85)))
	return ps
}

// goldenOrderings holds orderingHash of Markowitz and MinDegree per
// golden pattern, recorded from the hash-set implementation of
// eliminate (PR 15) before the adjacency-array one replaced it. The
// pivot rule — smallest (cost, vertex) among the live vertices — fixes
// the sequence whatever the data structure, so these never change
// unless the rule does; every factor bit downstream hangs off them.
var goldenOrderings = [][2]uint64{
	{0x5b4f216ff49282d4, 0xb7bb1f43dbcd234},
	{0x4770cad22b952db4, 0x4770cad22b952db4},
	{0xd0381daf4a605609, 0x69dba259925a644},
	{0x1a3af36dc1a7048f, 0x1a3af36dc1a7048f},
	{0x864a8278bd721b41, 0x28a17a64085a5fce},
	{0xd3384d7e9879d961, 0xd3384d7e9879d961},
	{0x1af366f4e10e5e70, 0x8958943a925d27e7},
	{0x6cf13de4569e92cd, 0x6cf13de4569e92cd},
	{0x2e44d4affb02b961, 0x903df80dd99e8a46},
	{0x67f8bf0f3eb5512c, 0x67f8bf0f3eb5512c},
	{0x93d0ad0b4cba8322, 0x1789e585352a5aa4},
	{0x5bd90a6f5e782828, 0x5bd90a6f5e782828},
	{0x12e03e63a823ee62, 0x3b2fa69c80836f9b},
	{0x886006c6075e6485, 0x886006c6075e6485},
	{0xa0bdd70f3f9a605, 0xbe7c506f5d41b8b8},
	{0x4f96a011ce1ebbcd, 0x4f96a011ce1ebbcd},
	{0x2e1f2331ae676573, 0x1c663844602cef2a},
	{0xdf18ffc288c743ef, 0xdf18ffc288c743ef},
	{0xda559a826002106c, 0x4b6084044a4f0441},
	{0x263f76786b8d35b0, 0x263f76786b8d35b0},
	{0xe0e0ca75b4b807da, 0x6232272bdbeb5552},
	{0xc857281417a7ab6f, 0xc857281417a7ab6f},
	{0xf3caec9eb6363d18, 0x5b5b3267a23b61d3},
	{0x7035f2f007adfdb1, 0x7035f2f007adfdb1},
	{0x790b28295711c668, 0xbfe21713d613504b},
	{0xb0005d1951867447, 0xb0005d1951867447},
	{0xdc96348b75711cdf, 0x1dff171741b1100a},
	{0x5036a159a5d6be52, 0x5036a159a5d6be52},
	{0x9d51979c0fbf4afd, 0x7f49b4d7663f5dd9},
	{0x12aac28b802220e2, 0x12aac28b802220e2},
	{0x79b60dfee87fc64a, 0x9ab193d98efa7130},
	{0xde2ade3bf841b89f, 0xde2ade3bf841b89f},
	{0x2d0089843ebca422, 0x128c457bc45070e1},
	{0xe4b685cb93344a4f, 0xe4b685cb93344a4f},
}

func TestGoldenOrderings(t *testing.T) {
	ps := goldenPatterns(t)
	if len(goldenOrderings) != len(ps) {
		for _, p := range ps {
			t.Logf("{%#x, %#x},", orderingHash(Markowitz(p)), orderingHash(MinDegree(p)))
		}
		t.Fatalf("golden table has %d rows for %d patterns", len(goldenOrderings), len(ps))
	}
	for i, p := range ps {
		mk, md := Markowitz(p), MinDegree(p)
		if !mk.Ordering.Valid() || !md.Ordering.Valid() {
			t.Fatalf("pattern %d: invalid ordering", i)
		}
		if got := orderingHash(mk); got != goldenOrderings[i][0] {
			t.Errorf("pattern %d (n=%d): Markowitz hash %#x, golden %#x", i, p.N(), got, goldenOrderings[i][0])
		}
		if got := orderingHash(md); got != goldenOrderings[i][1] {
			t.Errorf("pattern %d (n=%d): MinDegree hash %#x, golden %#x", i, p.N(), got, goldenOrderings[i][1])
		}
	}
}
