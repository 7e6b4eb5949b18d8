// Command cludebench regenerates the paper's tables and figures on the
// simulated datasets, and runs the kernel probes that guard the solve
// route constants (parallel, sparsesolve, supernodal, history). The
// server is measured by benchmark/ alone.
//
// Usage:
//
//	cludebench -exp fig7 -scale medium
//	cludebench -exp all  -scale small
//	cludebench -exp supernodal -json results.json
//	cludebench -list
//
// Every experiment prints one or more aligned text tables carrying the
// same series the corresponding paper figure plots; EXPERIMENTS.md
// records a captured run next to the paper's reported numbers.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/bench"
	"repro/internal/gen"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment id (see -list) or \"all\"")
		scale    = flag.String("scale", "small", "dataset scale: small | medium | paper")
		list     = flag.Bool("list", false, "list experiments and exit")
		workers  = flag.Int("workers", 1, "engine worker pool per run: 1 = paper-faithful sequential, 0 = GOMAXPROCS")
		jsonPath = flag.String("json", "", "also write every result to this JSON file (machine-readable; the CI artifact format)")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.Registry() {
			fmt.Printf("  %-10s %s\n", e.ID, e.Paper)
		}
		return
	}

	d, err := bench.DatasetsFor(gen.Scale(*scale))
	if err != nil {
		fatal(err)
	}
	d.Workers = *workers

	var todo []bench.Experiment
	if *exp == "all" {
		todo = bench.Registry()
	} else {
		e, err := bench.Find(*exp)
		if err != nil {
			fatal(err)
		}
		todo = []bench.Experiment{e}
	}

	report := bench.NewReport()
	for _, e := range todo {
		fmt.Printf("\n### %s — %s (scale=%s)\n", e.ID, e.Paper, *scale)
		tables, elapsed, allocs, bytes, err := bench.RunMeasured(e, d)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", e.ID, err))
		}
		for _, t := range tables {
			t.Fprint(os.Stdout)
		}
		fmt.Printf("\n[%s completed in %v, %d allocs, %s]\n",
			e.ID, elapsed.Round(time.Millisecond), allocs, fmtBytes(bytes))
		report.Add(e, gen.Scale(*scale), d.Workers, elapsed, allocs, bytes, tables)
	}
	if *jsonPath != "" {
		if err := bench.WriteJSON(*jsonPath, report); err != nil {
			fatal(err)
		}
		fmt.Printf("\n[wrote %d results to %s]\n", len(report.Runs), *jsonPath)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cludebench:", err)
	os.Exit(1)
}

// fmtBytes renders an allocation total human-readably.
func fmtBytes(b uint64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2fGiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.2fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.2fKiB", float64(b)/(1<<10))
	}
	return fmt.Sprintf("%dB", b)
}
