package gen

import (
	"math"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/xrand"
)

func TestBarabasiAlbertShape(t *testing.T) {
	rng := xrand.New(900)
	g := BarabasiAlbert(rng, 500, 3)
	if g.N() != 500 {
		t.Fatalf("N = %d, want 500", g.N())
	}
	// m(m+1)/2 clique edges + (n-m-1)*m attachment edges.
	want := 3*4/2 + (500-4)*3
	if g.NumEdges() != want {
		t.Errorf("edges = %d, want %d", g.NumEdges(), want)
	}
	// Scale-free tail: the maximum degree should far exceed the mean.
	hist := DegreeHistogram(g)
	maxDeg := len(hist) - 1
	mean := 2 * float64(g.NumEdges()) / float64(g.N())
	if float64(maxDeg) < 4*mean {
		t.Errorf("max degree %d too small for scale-free (mean %.1f)", maxDeg, mean)
	}
}

func TestBarabasiAlbertDeterministic(t *testing.T) {
	a := BarabasiAlbert(xrand.New(1), 200, 2)
	b := BarabasiAlbert(xrand.New(1), 200, 2)
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("BA not deterministic")
	}
	for u := 0; u < a.N(); u++ {
		if a.OutDegree(u) != b.OutDegree(u) {
			t.Fatal("BA degree sequences differ across runs with same seed")
		}
	}
}

func TestSyntheticMatchesPaperShape(t *testing.T) {
	cfg := DefaultSyntheticConfig()
	cfg.T = 20
	egs, err := Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if egs.Len() != cfg.T || egs.N() != cfg.V {
		t.Fatalf("EGS shape %dx%d, want %dx%d", egs.Len(), egs.N(), cfg.T, cfg.V)
	}
	// Initial average degree ≈ D.
	g0 := egs.Snapshots[0]
	avgDeg := 2 * float64(g0.NumEdges()) / float64(g0.N())
	if avgDeg < float64(cfg.D)*0.8 || avgDeg > float64(cfg.D)*1.2 {
		t.Errorf("initial avg degree %.2f, want ≈ %d", avgDeg, cfg.D)
	}
	// Net growth ≈ (∆E+ − ∆E−) per step.
	plus := cfg.K * cfg.DeltaE / (cfg.K + 1)
	minus := cfg.DeltaE / (cfg.K + 1)
	wantNet := (plus - minus) * (cfg.T - 1)
	gotNet := egs.Snapshots[cfg.T-1].NumEdges() - g0.NumEdges()
	if gotNet < wantNet*8/10 || gotNet > wantNet*12/10 {
		t.Errorf("net edge growth %d, want ≈ %d", gotNet, wantNet)
	}
	// Gradual evolution: successive similarity must be high.
	if mes := egs.AvgSuccessiveMES(); mes < 0.98 {
		t.Errorf("avg successive mes %.4f, want > 0.98", mes)
	}
}

func TestSyntheticValidation(t *testing.T) {
	cfg := DefaultSyntheticConfig()
	cfg.EP = cfg.V // far too small a pool
	cfg.D = 10
	if _, err := Synthetic(cfg); err == nil {
		t.Error("undersized pool accepted")
	}
	if _, err := Synthetic(SyntheticConfig{}); err == nil {
		t.Error("zero config accepted")
	}
}

func TestWikiSimShape(t *testing.T) {
	cfg := DefaultWikiConfig()
	cfg.N, cfg.T = 500, 30
	cfg.InitialEdges, cfg.FinalEdges = 1400, 3450
	egs, err := WikiSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if egs.Len() != cfg.T || egs.N() != cfg.N {
		t.Fatal("EGS shape wrong")
	}
	if !egs.Snapshots[0].Directed() {
		t.Fatal("wiki graphs must be directed")
	}
	e0 := egs.Snapshots[0].NumEdges()
	eT := egs.Snapshots[cfg.T-1].NumEdges()
	if e0 < cfg.InitialEdges*9/10 || e0 > cfg.InitialEdges*11/10 {
		t.Errorf("initial edges %d, want ≈ %d", e0, cfg.InitialEdges)
	}
	if eT < e0*3/2 {
		t.Errorf("final edges %d did not grow enough from %d", eT, e0)
	}
	if mes := egs.AvgSuccessiveMES(); mes < 0.97 {
		t.Errorf("avg successive mes %.4f, want > 0.97 (paper: 0.9988)", mes)
	}
}

// TestWikiEventsReplayWikiSim: at tiny and small, the matrix sequence
// replayed from WikiEvents' first graph and daily batches is
// DeriveEMS(WikiSim)'s bit for bit, with T-1 batches of events that
// each change the edge set where they stand.
func TestWikiEventsReplayWikiSim(t *testing.T) {
	for _, scale := range []Scale{Tiny, Small} {
		c, err := ConfigsFor(scale)
		if err != nil {
			t.Fatal(err)
		}
		egs, err := WikiSim(c.Wiki)
		if err != nil {
			t.Fatal(err)
		}
		first, batches, err := WikiEvents(c.Wiki)
		if err != nil {
			t.Fatal(err)
		}
		if len(batches) != c.Wiki.T-1 {
			t.Fatalf("%s: %d batches, want %d", scale, len(batches), c.Wiki.T-1)
		}
		b := graph.NewBuilderFrom(first)
		for day, batch := range batches {
			if n, err := b.ApplyBatch(batch); err != nil || n != len(batch) {
				t.Fatalf("%s: batch %d changed %d of its %d events (%v), want every one", scale, day, n, len(batch), err)
			}
		}
		d := graph.RWRMatrix(0.85)
		ems := graph.DeriveEMS(egs, d)
		seq, err := graph.NewDeltaSequence(first, batches, d)
		if err != nil {
			t.Fatal(err)
		}
		if seq.Len() != ems.Len() {
			t.Fatalf("%s: %d matrices, want %d", scale, seq.Len(), ems.Len())
		}
		for i := range seq.Len() {
			gp, gc, gv := seq.Matrix(i).Arrays()
			wp, wc, wv := ems.Matrices[i].Arrays()
			if !slices.Equal(gp, wp) || !slices.Equal(gc, wc) {
				t.Fatalf("%s: matrix %d: pattern differs from DeriveEMS(WikiSim)'s", scale, i)
			}
			for k := range gv {
				if math.Float64bits(gv[k]) != math.Float64bits(wv[k]) {
					t.Fatalf("%s: matrix %d entry %d is %v, want %v", scale, i, k, gv[k], wv[k])
				}
			}
		}
	}
}

// TestUrnFindIsTheScan: the Fenwick urn finds the item a linear scan
// subtracting the weights from t stops at, for every t, as weights move.
func TestUrnFindIsTheScan(t *testing.T) {
	rng := xrand.New(3)
	for _, n := range []int{1, 2, 7, 64, 100} {
		w, u := make([]int, n), newUrn(n)
		for round := 0; round < 50; round++ {
			v, d := rng.Intn(n), rng.Intn(5)
			if round%3 == 2 && w[v] > 0 {
				d = -w[v] // emptying a weight, as a page losing its in-links
			}
			w[v] += d
			u.add(v, d)
			total := 0
			for _, x := range w {
				total += x
			}
			for r := 0; r < total; r++ {
				want, rest := 0, r
				for rest -= w[want]; rest >= 0; rest -= w[want] {
					want++
				}
				if got := u.find(r); got != want {
					t.Fatalf("n=%d weights %v: find(%d) = %d, the scan stops at %d", n, w, r, got, want)
				}
			}
		}
	}
}

func TestDBLPSimShape(t *testing.T) {
	cfg := DefaultDBLPConfig()
	cfg.N, cfg.T = 600, 30
	cfg.InitialPapers, cfg.PapersPerDay = 500, 5
	egs, err := DBLPSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if egs.Snapshots[0].Directed() {
		t.Fatal("dblp graphs must be undirected")
	}
	// Monotone growth: every snapshot's edge set contains the previous.
	for i := 1; i < egs.Len(); i++ {
		prev, cur := egs.Snapshots[i-1], egs.Snapshots[i]
		if cur.NumEdges() < prev.NumEdges() {
			t.Fatalf("edge count shrank at snapshot %d", i)
		}
		for u := 0; u < prev.N(); u++ {
			for _, v := range prev.OutNeighbors(u) {
				if !cur.HasEdge(u, v) {
					t.Fatalf("edge (%d,%d) disappeared at snapshot %d", u, v, i)
				}
			}
		}
	}
	// Symmetric matrices derive from it.
	a := graph.Derive(graph.SymmetricWalkMatrix(0.9), egs.Snapshots[egs.Len()-1])
	if !a.IsSymmetric(1e-15) {
		t.Error("derived matrix not symmetric")
	}
	if mes := egs.AvgSuccessiveMES(); mes < 0.97 {
		t.Errorf("avg successive mes %.4f, want > 0.97 (paper: 0.9986)", mes)
	}
}

func TestPatentSimShape(t *testing.T) {
	cfg := DefaultPatentConfig()
	cfg.PatentsPerYear, cfg.Years = 5, 10
	data, err := PatentSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := len(cfg.Companies) * cfg.PatentsPerYear * cfg.Years
	if data.EGS.N() != n || data.EGS.Len() != cfg.Years {
		t.Fatal("patent EGS shape wrong")
	}
	// Citations must point to already-granted (older or same-year) patents.
	last := data.EGS.Snapshots[cfg.Years-1]
	for u := 0; u < n; u++ {
		for _, v := range last.OutNeighbors(u) {
			if data.GrantYear[v] > data.GrantYear[u] {
				t.Fatalf("patent %d (year %d) cites future patent %d (year %d)",
					u, data.GrantYear[u], v, data.GrantYear[v])
			}
		}
	}
	// Ungranted patents are isolated in early snapshots.
	first := data.EGS.Snapshots[0]
	for v := 0; v < n; v++ {
		if data.GrantYear[v] > 0 && (first.OutDegree(v) > 0 || first.InDegree(v) > 0) {
			t.Fatalf("future patent %d has edges in snapshot 0", v)
		}
	}
	// The riser's citation share toward the subject grows over time.
	early := riserSubjectShare(data, 1)
	late := riserSubjectShare(data, cfg.Years-1)
	if late <= early {
		t.Errorf("riser bias not increasing: early %.3f late %.3f", early, late)
	}
}

// riserSubjectShare computes the fraction of the riser company's
// citations granted in a given year that point at subject patents.
func riserSubjectShare(data *PatentData, year int) float64 {
	rising, subject := 2, 0
	total, toSubject := 0, 0
	last := data.EGS.Snapshots[data.EGS.Len()-1]
	for u := 0; u < last.N(); u++ {
		if data.Company[u] != rising || data.GrantYear[u] != year {
			continue
		}
		for _, v := range last.OutNeighbors(u) {
			total++
			if data.Company[v] == subject {
				toSubject++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(toSubject) / float64(total)
}
