// Command benchmark is the repository's one benchmark: it measures the
// whole system end to end and layer by layer, checks the answers it
// gets, and reports every metric named in BENCHMARK.json.
//
// Three workloads drive a real cludeserve child process over loopback
// HTTP, through its CLI flags and /v1 routes only; the fourth drives the
// paper's batch LUDEM through core.Run in-process. README.md in this
// directory says who each workload stands for, which layer metric should
// move which end-to-end metric, and what the benchmark may use from the
// repository (the pinned surface).
//
//	go run ./benchmark -workload query_hot -seed 7 -seconds 16 -trace 0
//	go run ./benchmark -runs 10                 # every workload, ten seeds each → benchmark/out/BENCH_<utc>.json
//	go run ./benchmark -compare a.json b.json   # A/A or parent/change comparison
//	go run ./benchmark -quick                   # seconds-long smoke at -scale tiny
//
// With -workload the last line of standard output is one JSON object:
// {"correct":…,"attempted":…,"failed":…,"metrics":{…}} holding the
// end-to-end metrics (-trace 0) or the per-layer metrics (-trace 1).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// manifest is BENCHMARK.json: the names, units, directions and bounds
// this program reports against.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadManifest(root string) (*manifest, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &m, nil
}

func (m *manifest) unit(name string) string {
	for _, list := range [][]metricSpec{m.EndToEnd, m.PerLayer} {
		for _, s := range list {
			if s.Name == name {
				return s.Unit
			}
		}
	}
	return ""
}

// workloads maps each workload name to its driver.
var workloads = map[string]func(*run) error{
	"query_wide":   func(r *run) error { return runQuery(r, queryWide) },
	"query_hot":    func(r *run) error { return runQuery(r, queryHot) },
	"ingest_mixed": runIngest,
	"ludem_batch":  runLudem,
}

// measured is one metric value as the result line and the BENCH file
// carry it.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the result line: exactly these four keys.
type result struct {
	Correct   bool                `json:"correct"`
	Attempted int64               `json:"attempted"`
	Failed    int64               `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
}

// outcome is one finished run as the BENCH file records it.
type outcome struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace,omitempty"`
	result
	Failures []string `json:"failures,omitempty"`
	Budgets  []budget `json:"budgets,omitempty"`

	measuredLayers map[string]bool // per-layer names this run set itself
}

// environment is recorded with every BENCH file; a run started on a box
// already busier than it has processors is marked unresolved.
type environment struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GitCommit  string  `json:"git_commit"`
	Kernel     string  `json:"kernel"`
	LoadAvg    float64 `json:"load_average_at_start"`
	// ConfinedCPU is the one processor the benchmark and its servers run
	// on, -1 when the kernel refused the confinement.
	ConfinedCPU int  `json:"confined_cpu"`
	Unresolved  bool `json:"unresolved"`
}

func readEnvironment(root string) environment {
	env := environment{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GitCommit: "unknown", Kernel: kernelVersion(),
	}
	git := exec.Command("git", "rev-parse", "--short", "HEAD")
	git.Dir = root
	if out, err := git.Output(); err == nil { // not a git checkout: stays "unknown"
		env.GitCommit = strings.TrimSpace(string(out))
	}
	if load, err := loadAverage(); err == nil {
		env.LoadAvg = load
		env.Unresolved = load > float64(env.NProc)
	}
	return env
}

// benchFile is benchmark/out/BENCH_<utc>.json.
type benchFile struct {
	When    string      `json:"when_utc"`
	Seconds int         `json:"seconds"`
	Env     environment `json:"environment"`
	Runs    []outcome   `json:"runs"`
}

// runOne runs one workload once and returns its outcome. The human
// report goes to out.
func runOne(h *harness, spec *manifest, name string, seed int64, seconds int, traced, quick bool, out io.Writer) (outcome, error) {
	drive, ok := workloads[name]
	if !ok {
		return outcome{}, fmt.Errorf("unknown workload %q", name)
	}
	r := &run{
		h: h, seed: seed, scale: float64(seconds) / nominalSeconds, traced: traced, quick: quick,
		out: out,
		end: map[string]float64{}, layer: map[string]float64{},
	}
	if quick {
		r.scale = quickScale
	}
	if traced {
		r.rec = newRecorder()
	}
	fmt.Fprintf(out, "\n== %s  seed=%d  seconds=%d  trace=%v ==\n", name, seed, seconds, traced)
	if err := drive(r); err != nil {
		r.report(spec)
		return outcome{}, fmt.Errorf("%s: %w", name, err)
	}
	r.report(spec)

	o := outcome{
		Workload: name, Seed: seed, Trace: traced,
		result:   result{Attempted: r.attempted.Load(), Failed: r.failed.Load(), Metrics: map[string]measured{}},
		Failures: r.failures, Budgets: r.budgets,
	}
	// -trace 0 reports every end-to-end metric, -trace 1 every per-layer
	// one; a layer the workload does not have reads 0.
	specs, values := spec.EndToEnd, r.end
	if traced {
		specs, values = spec.PerLayer, r.layer
	}
	for _, m := range specs {
		v, ok := values[m.Name]
		if !ok && !traced {
			return o, fmt.Errorf("%s did not measure %s", name, m.Name)
		}
		if !finite(v) {
			return o, fmt.Errorf("%s measured %s = %v", name, m.Name, v)
		}
		o.Metrics[m.Name] = measured{v, m.Unit}
	}
	o.measuredLayers = map[string]bool{}
	for name := range r.layer {
		o.measuredLayers[name] = true
		if spec.unit(name) == "" {
			return o, fmt.Errorf("%s is measured but not named in BENCHMARK.json", name)
		}
	}
	o.Correct = o.Failed == 0 && o.Attempted > 0
	if traced {
		dir := filepath.Join(h.root, "benchmark", "out")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return o, err
		}
		tf := traceFile{Workload: name, Seed: seed, Budgets: r.budgets, SelfNS: selfTimes(r.rec.spans), Spans: r.rec.spans}
		if err := writeTrace(filepath.Join(dir, "trace_"+name+".json"), tf); err != nil {
			return o, err
		}
	}
	return o, nil
}

func main() {
	var (
		workload = flag.String("workload", "", "run one workload and end with the result line: query_wide | query_hot | ingest_mixed | ludem_batch (default: all, into a BENCH file)")
		seed     = flag.Int64("seed", 1, "seed of every generated request stream, event stream and batch dataset")
		seconds  = flag.Int("seconds", 0, "length of one run's measured part; scales the frozen operation counts (default: run_seconds of BENCHMARK.json)")
		trace    = flag.Int("trace", 0, "1 = the separate traced run: client spans, /v1/metrics windows, per-layer metrics and budget tables")
		runs     = flag.Int("runs", 1, "without -workload: untraced runs per workload, on seeds seed, seed+1, …; one traced run each follows")
		quick    = flag.Bool("quick", false, "seconds-long smoke: servers at -scale tiny, counts shrunk 40×")
		compare  = flag.Bool("compare", false, "compare two BENCH files: benchmark -compare a.json b.json")
	)
	flag.Parse()
	os.Exit(realMain(*workload, *seed, *seconds, *trace != 0, *runs, *quick, *compare, flag.Args()))
}

func realMain(workload string, seed int64, seconds int, traced bool, runs int, quick, compare bool, args []string) int {
	root, err := repoRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	spec, err := loadManifest(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if compare {
		if len(args) != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare a.json b.json")
			return 2
		}
		return compareFiles(spec, args[0], args[1], os.Stdout)
	}
	if seconds <= 0 {
		seconds = spec.RunSeconds
	}

	env := readEnvironment(root)
	h, err := newHarness()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	// Build on every processor the box has, then measure on one.
	if _, err := h.binary(); err != nil {
		h.close()
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if env.ConfinedCPU, err = confineToOneCPU(); err != nil {
		env.ConfinedCPU = -1
		fmt.Fprintf(os.Stderr, "benchmark: not confined to one processor (%v): expect noisier timings\n", err)
	}
	// Every exit path reaps the children and removes the scratch
	// directory: normal return, failed run, SIGINT/SIGTERM, and the
	// watchdog that keeps a wedged run from outliving its time cap.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	done := make(chan int, 1)
	go func() { done <- drive(h, spec, env, workload, seed, seconds, traced, runs, quick) }()
	watchdog := time.NewTimer(170 * time.Second)
	if workload == "" {
		watchdog.Stop()
	}
	code := 1
	select {
	case code = <-done:
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "benchmark: %v — stopping the server and cleaning up\n", s)
		code = 130
	case <-watchdog.C:
		fmt.Fprintln(os.Stderr, "benchmark: run exceeded 170 s — stopping the server and cleaning up")
	}
	h.close()
	return code
}

// drive runs what the flags asked for and returns the exit code.
func drive(h *harness, spec *manifest, env environment, workload string, seed int64, seconds int, traced bool, runs int, quick bool) int {
	if env.Unresolved {
		fmt.Printf("UNRESOLVED: load average %.2f at start exceeds nproc %d; timings from this run settle nothing\n", env.LoadAvg, env.NProc)
	}
	if workload != "" {
		o, err := runOne(h, spec, workload, seed, seconds, traced, quick, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		line, err := json.Marshal(o.result)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		fmt.Printf("%s\n", line)
		return 0
	}

	// The full set: `runs` untraced runs of every workload on consecutive
	// seeds, then one traced run each; written to a BENCH file for
	// -compare. Workloads take turns, so that each one's runs span the
	// whole set and a slow quarter of an hour on a shared box falls on all
	// of them alike.
	bf := benchFile{When: time.Now().UTC().Format("20060102T150405Z"), Seconds: seconds, Env: env}
	failed := false
	for k := 0; k <= runs; k++ {
		for _, w := range spec.Workloads {
			isTrace := k == runs
			s := seed + int64(k)
			if isTrace {
				s = seed
			}
			o, err := runOne(h, spec, w.Name, s, seconds, isTrace, quick, os.Stdout)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			failed = failed || !o.Correct
			bf.Runs = append(bf.Runs, o)
		}
	}
	dir := filepath.Join(h.root, "benchmark", "out")
	path := filepath.Join(dir, "BENCH_"+bf.When+".json")
	body, err := json.MarshalIndent(bf, "", " ")
	if err == nil {
		err = errors.Join(os.MkdirAll(dir, 0o755), os.WriteFile(path, body, 0o644))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Printf("\nwrote %s\n", path)
	if failed {
		fmt.Println("FAILED: at least one run had failed operations")
		return 1
	}
	return 0
}
