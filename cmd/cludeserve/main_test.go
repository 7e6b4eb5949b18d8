package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/lu"
	"repro/internal/serve"
	"repro/internal/store"
)

func newFlagSet() (*flag.FlagSet, *options) {
	fs := flag.NewFlagSet("cludeserve", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return fs, defineFlags(fs)
}

// TestBenchmarkPinnedFlagsParse: the eleven flags benchmark/ starts the
// server with are a frozen surface; they must keep parsing into the
// options they always set, -alg CLUDE included.
func TestBenchmarkPinnedFlagsParse(t *testing.T) {
	fs, o := newFlagSet()
	err := fs.Parse([]string{
		"-addr", "127.0.0.1:18101", "-scale", "tiny", "-snapshots", "64",
		"-stream", "-alg", "CLUDE", "-batch", "4", "-flush-ms", "50",
		"-history-base", "8", "-data-dir", "/tmp/clude", "-fsync", "none",
		"-snapshot-every", "16",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := options{
		addr: "127.0.0.1:18101", scale: "tiny", maxSnaps: 64,
		streaming: true, algName: "CLUDE", batchSize: 4, flushMS: 50,
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
	if err := checkAlg(o.algName); err != nil {
		t.Fatal(err)
	}
}

// TestRouteKnobFlagsAreGone: the solve route is the solver's decision,
// a streamed version is kept one way (-history-base), and a knob nothing
// sets is the default it always was. The three flags that used to steer
// the first, the one that was the second way and the eight that became
// constants or serve.New's defaults must be rejected as unknown, and
// the flag count stays what the docs say.
func TestRouteKnobFlagsAreGone(t *testing.T) {
	// Spelled in pieces so a grep for the retired names finds the
	// changelog and the docs, not this test.
	for _, words := range [][]string{
		{"sparse", "frac"}, {"solve", "batch"}, {"panel", "min", "width"}, {"checkpoint"},
		{"alpha"}, {"workers"}, {"factor", "workers"}, {"cache"}, {"queue"},
		{"query", "timeout"}, {"history", "budget"}, {"slow", "query", "ms"},
	} {
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
	if n != 15 {
		t.Errorf("cludeserve defines %d flags, want 15", n)
	}
}

// fingerprintStore is a serve.Engine that also records the SHA-256 of
// every solver pinned into it, ordering and factor bits, as the store
// codec spells them.
type fingerprintStore struct {
	*serve.Engine
	sums map[int]string
}

func (f fingerprintStore) Pin(i int, s *lu.Solver) {
	h := sha256.New()
	if err := store.WriteSolver(h, s); err != nil {
		panic(err)
	}
	f.sums[i] = hex.EncodeToString(h.Sum(nil))
	f.Engine.Pin(i, s)
}

// pinnedLine matches the numbers of the start-up "pinned snapshots" log
// line that say how much of the sequence was decomposed, and where the
// chain of the cluster that straddles the first kept snapshot opened.
var pinnedLine = regexp.MustCompile(`msg="pinned snapshots" count=(\d+) .* clusters=(\d+) decomposed_clusters=(\d+) decomposed_snapshots=(\d+) opened_at=(\d+) `)

// tailAgreeBound bounds, relative in the ∞-norm, how far an answer of the
// tail-only run may move from the keep-everything run's: the straddled
// cluster's chain opens at the first kept snapshot, an exact LU of it,
// where the keep-everything run reaches it by Bennett steps, so the two
// differ by rounding. Fixed before the test first ran.
const tailAgreeBound = 1e-13

// TestFactorOfflineClonesOnlyWhatIsKept: with a bounded store and no
// spill directory the offline run decomposes — and clones, and pins —
// just the clusters that reach into the tail the store will still hold
// when the listener opens, opening the straddled cluster's chain at the
// first kept snapshot, and says so in its log line; with a spill
// directory every snapshot passes through the store, as before. The
// retained snapshots, factored from the sequence replayed from events,
// carry exactly the factor bits of core.Run over the derived EMS with
// the same First: with a spill directory those of a keep-everything run,
// without one those of a run from the first kept snapshot, whose answers
// agree with the keep-everything run's within tailAgreeBound.
func TestFactorOfflineClonesOnlyWhatIsKept(t *testing.T) {
	d, err := gen.ConfigsFor(gen.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	egs, err := gen.WikiSim(d.Wiki)
	if err != nil {
		t.Fatal(err)
	}
	ems := graph.DeriveEMS(egs, graph.RWRMatrix(damping))
	first, batches, _, err := dataset(gen.Tiny, false)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := graph.NewDeltaSequence(first, batches, graph.RWRMatrix(damping))
	if err != nil {
		t.Fatal(err)
	}
	// Tiny plans two clusters, [0,7) and [7,10): keeping two snapshots
	// skips the first and enters the second past its start.
	T, keep := seq.Len(), 2
	var logged bytes.Buffer
	defer slog.SetDefault(slog.Default())
	slog.SetDefault(slog.New(slog.NewTextHandler(&logged, nil)))
	// run returns the store and the log line's count, clusters,
	// decomposed_clusters, decomposed_snapshots and opened_at.
	run := func(scfg serve.Config, seq graph.Sequence) (fingerprintStore, [5]int) {
		scfg.Damping, scfg.Workers = damping, 1
		eng := fingerprintStore{serve.New(scfg), map[int]string{}}
		t.Cleanup(eng.Close)
		logged.Reset()
		if err := factorOffline(eng, scfg, seq, 0); err != nil {
			t.Fatal(err)
		}
		m := pinnedLine.FindStringSubmatch(logged.String())
		if m == nil {
			t.Fatalf("no pinned-snapshots line with the decomposed counts in %q", logged.String())
		}
		var nums [5]int
		for k := range nums {
			nums[k], _ = strconv.Atoi(m[k+1])
		}
		return eng, nums
	}
	all, allLine := run(serve.Config{MaxSnapshots: T}, ems)
	tail, tailLine := run(serve.Config{MaxSnapshots: keep}, seq)
	spill, spillLine := run(serve.Config{MaxSnapshots: keep, SpillDir: t.TempDir()}, seq)

	clusters := allLine[1]
	if want := [5]int{T, clusters, clusters, T, 0}; allLine != want || clusters < 2 {
		t.Errorf("unbounded store logged count, clusters, decomposed_clusters, decomposed_snapshots, opened_at = %v, want %v with at least 2 clusters", allLine, want)
	}
	if spillLine != [5]int{keep, clusters, clusters, T, 0} {
		t.Errorf("spilling store logged %v, want all %d clusters and %d snapshots decomposed, opened at 0", spillLine, clusters, T)
	}
	if tailLine[0] != keep || tailLine[1] != clusters || tailLine[2] >= clusters || tailLine[3] != keep || tailLine[4] != T-keep {
		t.Errorf("bounded store logged %v: want %d pinned of %d planned clusters, fewer decomposed, and %d snapshots decomposed from snapshot %d on", tailLine, keep, clusters, keep, T-keep)
	}

	// The tail-only run's reference: core.Run over the derived EMS from
	// the first kept snapshot, pinned as factorOffline pins.
	fromFirst := map[int]string{}
	if _, err := core.Run(ems, core.CLUDE, core.Options{Alpha: alpha, Workers: 1, First: T - keep, OnFactors: func(i int, s *lu.Solver) {
		h := sha256.New()
		if err := store.WriteSolver(h, s.Clone()); err != nil {
			t.Fatal(err)
		}
		fromFirst[i] = hex.EncodeToString(h.Sum(nil))
	}}); err != nil {
		t.Fatal(err)
	}

	if st := all.Stats(); st.SnapshotsPinned != int64(T) || st.SnapshotsEvicted != 0 {
		t.Errorf("unbounded store: %d pins, %d evictions, want %d and 0", st.SnapshotsPinned, st.SnapshotsEvicted, T)
	}
	if st := tail.Stats(); st.SnapshotsPinned != int64(keep) || st.SnapshotsEvicted != 0 {
		t.Errorf("bounded store: %d pins, %d evictions, want %d and 0", st.SnapshotsPinned, st.SnapshotsEvicted, keep)
	}
	if st := spill.Stats(); st.SnapshotsPinned < int64(T) || st.SnapshotsEvicted != int64(T-keep) {
		t.Errorf("spilling store: %d pins, %d evictions, want at least %d and %d", st.SnapshotsPinned, st.SnapshotsEvicted, T, T-keep)
	}
	if len(tail.sums) != keep {
		t.Errorf("bounded store was handed %d snapshots, want %d", len(tail.sums), keep)
	}
	ctx := context.Background()
	largest := 0.0
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
		spilled, err := spill.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if spill.sums[i] != all.sums[i] || !slices.Equal(spilled.Scores, want.Scores) {
			t.Errorf("snapshot %d: the spilling store's factors or answer differ from the keep-everything run's (spilling %.8s, all %.8s)", i, spill.sums[i], all.sums[i])
		}
		if tail.sums[i] != fromFirst[i] {
			t.Errorf("snapshot %d: the tail-only store's factors differ from core.Run's from snapshot %d over the EMS (%.8s, %.8s)", i, T-keep, tail.sums[i], fromFirst[i])
		}
		if i == T-keep && tail.sums[i] == all.sums[i] {
			t.Errorf("snapshot %d: the tail-only store pinned the keep-everything run's Bennett-walked factors, not the LU of the snapshot its chain opened at", i)
		}
		diff, norm := 0.0, 0.0
		for u := range want.Scores {
			diff, norm = max(diff, math.Abs(got.Scores[u]-want.Scores[u])), max(norm, math.Abs(want.Scores[u]))
		}
		rel := diff / norm
		if rel > tailAgreeBound {
			t.Errorf("snapshot %d: the tail-only run's answer moved %.3g from the keep-everything run's, relative; bound %g", i, rel, tailAgreeBound)
		}
		largest = max(largest, rel)
	}
	t.Logf("largest relative move of a tail-only answer from the keep-everything run's: %.3g (bound %g)", largest, tailAgreeBound)
}

// TestAlgFlagAcceptsCLUDEOnly: -alg stays in the flag set so that
// existing command lines parse, but the server's stream is CLUDE: the
// flag accepts CLUDE in any case and nothing else, and the binary exits
// 1 with that message on any other value.
func TestAlgFlagAcceptsCLUDEOnly(t *testing.T) {
	if args := os.Getenv("CLUDESERVE_TEST_ARGS"); args != "" {
		// The re-executed child: run the real main on these arguments.
		os.Args = append([]string{"cludeserve"}, strings.Fields(args)...)
		main()
		return
	}
	for _, name := range []string{"CLUDE", "clude", "Clude"} {
		if err := checkAlg(name); err != nil {
			t.Errorf("-alg %s: %v", name, err)
		}
	}
	for _, name := range []string{"INC", "CINC", "BF", "inc", ""} {
		if err := checkAlg(name); err == nil || !strings.Contains(err.Error(), "the server's stream is CLUDE") {
			t.Errorf("-alg %q: got %v, want it refused", name, err)
		}
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestAlgFlagAcceptsCLUDEOnly$")
	cmd.Env = append(os.Environ(), "CLUDESERVE_TEST_ARGS=-stream -alg INC")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.Contains(string(out), `cludeserve: -alg "INC": the server's stream is CLUDE`) {
		t.Fatalf("cludeserve -stream -alg INC: %v, output %q; want exit status 1 with the CLUDE-only message", err, out)
	}
}

// TestStreamDatasetIsDayOne pins stream mode's dataset to the offline
// one's first snapshot: generating day 1 alone gives the same graph,
// edge for edge, at every scale the server runs, and the same length T.
func TestStreamDatasetIsDayOne(t *testing.T) {
	for _, scale := range []gen.Scale{gen.Tiny, gen.Small, gen.Medium} {
		full, batches, T, err := dataset(scale, false)
		if err != nil {
			t.Fatal(err)
		}
		day1, none, streamT, err := dataset(scale, true)
		if err != nil {
			t.Fatal(err)
		}
		if len(none) != 0 || streamT != T || T != len(batches)+1 {
			t.Fatalf("%s: stream dataset has %d batches and T=%d; offline %d batches and T=%d", scale, len(none), streamT, len(batches), T)
		}
		if full.N() != day1.N() || full.Directed() != day1.Directed() || !slices.Equal(full.Edges(), day1.Edges()) {
			t.Fatalf("%s: the day-1 graph (%d edges) differs from the offline dataset's first snapshot (%d edges)", scale, day1.NumEdges(), full.NumEdges())
		}
	}
}

// TestStreamSnapshotsZeroIsTheDatasetLength pins what -snapshots 0
// means in stream mode: the same T as offline, the length of the -scale
// dataset the stream starts from (10 at tiny, 250 at medium), so it
// bounds the pinned history bases by the offline sequence's length. The
// flag's -h text says so. A positive value is taken as given.
func TestStreamSnapshotsZeroIsTheDatasetLength(t *testing.T) {
	first, batches, tiny, err := dataset(gen.Tiny, true)
	if err != nil {
		t.Fatal(err)
	}
	medium, err := gen.ConfigsFor(gen.Medium)
	if err != nil {
		t.Fatal(err)
	}
	if first == nil || len(batches) != 0 || tiny != 10 || medium.Wiki.T != 250 {
		t.Fatalf("dataset lengths %d (tiny) and %d (medium), want 10 and 250", tiny, medium.Wiki.T)
	}
	for _, c := range []struct {
		args []string
		T    int
		want int
	}{
		{[]string{"-stream", "-history-base", "2"}, tiny, tiny},
		{[]string{"-stream", "-snapshots", "0"}, medium.Wiki.T, 250},
		{nil, medium.Wiki.T, 250},
		{[]string{"-stream", "-snapshots", "7"}, medium.Wiki.T, 7},
	} {
		fs, o := newFlagSet()
		if err := fs.Parse(c.args); err != nil {
			t.Fatal(err)
		}
		if got := engineConfig(o, c.T, nil).MaxSnapshots; got != c.want {
			t.Errorf("%q over a %d-snapshot dataset: snapshot bound %d, want %d", c.args, c.T, got, c.want)
		}
	}
	fs, _ := newFlagSet()
	if usage := fs.Lookup("snapshots").Usage; !strings.Contains(usage, "-stream") || !strings.Contains(usage, "dataset's length") {
		t.Errorf("-snapshots usage %q does not say what 0 means with -stream", usage)
	}
}

// commandArgs returns the argument lists that follow "cludeserve" in
// text: the program name must stand alone (after a space, a slash or
// the start) and be followed by a flag. The list ends at a shell
// operator, a redirect or a comment.
func commandArgs(text string) [][]string {
	var out [][]string
	for i := 0; ; {
		k := strings.Index(text[i:], "cludeserve")
		if k < 0 {
			return out
		}
		at, end := i+k, i+k+len("cludeserve")
		i = end
		if at > 0 && !strings.ContainsAny(text[at-1:at], " /\t") {
			continue
		}
		var args []string
		for _, tok := range strings.Fields(text[end:]) {
			if tok == "&" || tok == "&&" || tok == "|" || tok == ";" || strings.HasPrefix(tok, ">") || strings.HasPrefix(tok, "2>") || strings.HasPrefix(tok, "#") {
				break
			}
			args = append(args, strings.Trim(tok, `"'`))
		}
		if len(args) > 0 && strings.HasPrefix(args[0], "-") {
			out = append(out, args)
		}
	}
}

// checkFlags walks args the way the flag package does and reports the
// first flag cludeserve does not define, or an -alg value the server
// refuses. A value is not checked otherwise: the docs write
// placeholders such as "-history-base k". The walk stops at the first
// word that is neither a flag nor a flag's value.
func checkFlags(fs *flag.FlagSet, args []string) error {
	for i := 0; i < len(args); i++ {
		tok := args[i]
		if !strings.HasPrefix(tok, "-") || tok == "-" || tok == "--" {
			return nil
		}
		name, value, hasValue := strings.Cut(strings.TrimLeft(tok, "-"), "=")
		if name == "h" || name == "help" {
			continue
		}
		f := fs.Lookup(name)
		if f == nil {
			return fmt.Errorf("flag -%s is not defined", name)
		}
		if b, ok := f.Value.(interface{ IsBoolFlag() bool }); ok && b.IsBoolFlag() {
			continue
		}
		if !hasValue {
			if i+1 == len(args) {
				continue
			}
			i++
			value = args[i]
		}
		if name == "alg" {
			if err := checkAlg(value); err != nil {
				return err
			}
		}
	}
	return nil
}

// TestDocCommandLinesParse runs every cludeserve command line the docs,
// the README, the benchmark's README (read only) and the scripts quote
// through the flag set: each flag must exist and an -alg must be one
// the server accepts. Markdown is read from its code blocks and inline
// code spans, with "\" line continuations joined; the scripts pass
// their server flags through SRV_FLAGS=(...) (crash_recovery_smoke.sh)
// and boot <log> <flags...> (probe_bodies.sh).
func TestDocCommandLinesParse(t *testing.T) {
	root := filepath.Join("..", "..")
	docs, err := filepath.Glob(filepath.Join(root, "docs", "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	scripts, err := filepath.Glob(filepath.Join(root, "scripts", "*.sh"))
	if err != nil {
		t.Fatal(err)
	}
	inline := regexp.MustCompile("`([^`]+)`")
	srvFlags := regexp.MustCompile(`SRV_FLAGS=\(([^)]*)\)`)
	bootLine := regexp.MustCompile(`(?m)^boot \S+ (.*)$`)
	found := map[string]int{}
	check := func(file string, args []string) {
		rel, err := filepath.Rel(root, file)
		if err != nil {
			t.Fatal(err)
		}
		found[filepath.ToSlash(rel)]++
		fs, _ := newFlagSet()
		if err := checkFlags(fs, args); err != nil {
			t.Errorf("%s: cludeserve %s: %v", file, strings.Join(args, " "), err)
		}
	}
	for _, file := range append(docs, filepath.Join(root, "README.md"), filepath.Join(root, "benchmark", "README.md")) {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		text := strings.ReplaceAll(string(raw), "\\\n", " ")
		var prose strings.Builder
		fenced := false
		for _, line := range strings.Split(text, "\n") {
			switch {
			case strings.HasPrefix(strings.TrimSpace(line), "```"):
				fenced = !fenced
			case fenced:
				for _, args := range commandArgs(line) {
					check(file, args)
				}
			default:
				prose.WriteString(line + "\n")
			}
		}
		for _, m := range inline.FindAllStringSubmatch(prose.String(), -1) {
			for _, args := range commandArgs(strings.ReplaceAll(m[1], "\n", " ")) {
				check(file, args)
			}
		}
	}
	for _, file := range scripts {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		text := string(raw)
		for _, m := range append(srvFlags.FindAllStringSubmatch(text, -1), bootLine.FindAllStringSubmatch(text, -1)...) {
			var args []string
			for _, tok := range strings.Fields(m[1]) {
				args = append(args, strings.Trim(tok, `"'`))
			}
			check(file, args)
		}
		for _, args := range commandArgs(text) {
			check(file, args)
		}
	}
	for _, file := range []string{
		"README.md", "benchmark/README.md", "docs/SERVING.md", "docs/STREAMING.md", "docs/PERSISTENCE.md",
		"scripts/crash_recovery_smoke.sh", "scripts/probe_bodies.sh",
	} {
		if found[file] == 0 {
			t.Errorf("no cludeserve command line found in %s: the extraction no longer sees it", file)
		}
	}
	t.Logf("checked command lines per file: %v", found)
}

// TestFlagTableMatchesDefineFlags: the flag table in docs/SERVING.md
// ("### Flags") names exactly the flags defineFlags registers, so a
// flag cannot be added or removed without the table saying who sets it.
func TestFlagTableMatchesDefineFlags(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "docs", "SERVING.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(raw), "\n### Flags\n")
	if !ok {
		t.Fatal("docs/SERVING.md has no \"### Flags\" section")
	}
	if end := strings.Index(section, "\n#"); end >= 0 {
		section = section[:end]
	}
	row := regexp.MustCompile("(?m)^\\| `-([a-z-]+)` \\|")
	documented := map[string]bool{}
	for _, m := range row.FindAllStringSubmatch(section, -1) {
		if documented[m[1]] {
			t.Errorf("the table lists -%s twice", m[1])
		}
		documented[m[1]] = true
	}
	fs, _ := newFlagSet()
	defined := map[string]bool{}
	fs.VisitAll(func(f *flag.Flag) {
		defined[f.Name] = true
		if !documented[f.Name] {
			t.Errorf("-%s is defined but missing from the flag table", f.Name)
		}
	})
	for name := range documented {
		if !defined[name] {
			t.Errorf("the flag table lists -%s, which cludeserve does not define", name)
		}
	}
}
