package main

import (
	"bufio"
	"bytes"
	"fmt"
	"strconv"
	"strings"
)

// scrape is one parsed GET /v1/metrics body: every sample keyed by its
// series exactly as exposed, labels included
// (`clude_query_stage_seconds_sum{stage="solve"}`).
type scrape map[string]float64

// parseProm parses Prometheus text exposition (format 0.0.4) as the
// server renders it: comment lines, then `series value` samples whose
// label values contain no spaces or escapes. Histogram buckets are
// skipped — the benchmark reads only _sum, _count, counters and gauges.
func parseProm(body []byte) (scrape, error) {
	out := scrape{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for ln := 1; sc.Scan(); ln++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics line %d: no value in %q", ln, line)
		}
		series := strings.TrimSpace(line[:i])
		if strings.Contains(series, "_bucket{") {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: series %s: %w", ln, series, err)
		}
		out[series] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("metrics body: %w", err)
	}
	return out, nil
}

// window is the change of every series between two scrapes of one
// process, plus the closing scrape for gauges. A series the program no
// longer exposes is an error naming it, never a silent zero: a renamed
// metric must break the benchmark loudly.
type window struct {
	from, to scrape
	missing  []string
}

func (w *window) lookup(series string) (from, to float64) {
	to, ok := w.to[series]
	if !ok {
		w.missing = append(w.missing, series)
		return 0, 0
	}
	return w.from[series], to
}

// delta is the counter increase over the window.
func (w *window) delta(series string) float64 {
	from, to := w.lookup(series)
	return to - from
}

// gauge is the value at the window's close.
func (w *window) gauge(series string) float64 {
	_, to := w.lookup(series)
	return to
}

// histMean is the mean observation of a histogram over the window in
// milliseconds (its series are in seconds), and the observation count.
// labels is "" or a rendered label set such as `{stage="solve"}`.
func (w *window) histMean(name, labels string) (ms, count float64) {
	sum := w.delta(name + "_sum" + labels)
	count = w.delta(name + "_count" + labels)
	if count <= 0 {
		return 0, 0
	}
	return sum / count * 1e3, count
}

// err reports every series that was asked for and not exposed.
func (w *window) err() error {
	if len(w.missing) == 0 {
		return nil
	}
	return fmt.Errorf("/v1/metrics does not expose: %s", strings.Join(w.missing, ", "))
}

// ratio is a/b, and 0 when b is 0 (a share of nothing).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
