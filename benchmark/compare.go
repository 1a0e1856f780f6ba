package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
)

// benchmarkSpec is the part of BENCHMARK.json that -compare needs.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readSpec(path string) (*benchmarkSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// readRecords reads a runs file: one record per line, as -append writes.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// side summarizes one file's runs of one workload and metric.
type side struct {
	values []float64
	median float64
	spread float64 // distance between the quartiles, as a share of the median
}

func summarize(values []float64) side {
	s := side{values: values}
	if len(values) == 0 {
		return s
	}
	sort.Float64s(values)
	s.median = median(values)
	if len(values) >= 2 && s.median != 0 {
		q1, q3 := quartiles(values)
		s.spread = (q3 - q1) / s.median
	}
	return s
}

// quartiles returns the first and third quartile of sorted values by the
// exclusive method (Python's statistics.quantiles(values, n=4)).
func quartiles(sorted []float64) (q1, q3 float64) {
	at := func(pos float64) float64 { // 1-based position, interpolated
		n := len(sorted)
		lo := int(pos)
		lo = min(max(lo, 1), n-1)
		frac := pos - float64(lo)
		return sorted[lo-1] + frac*(sorted[lo]-sorted[lo-1])
	}
	n := float64(len(sorted))
	return at((n + 1) / 4), at(3 * (n + 1) / 4)
}

// Verdicts of one workload × metric row.
const (
	verdictImproved   = "improved"
	verdictUnchanged  = "unchanged"
	verdictRegressed  = "REGRESSED"
	verdictUnresolved = "unresolved"
	verdictMissing    = "missing"
)

// judge compares b with a for a metric that is better in the given
// direction, under the bound: the share of a's median by which b's may be
// worse. A spread wider than the bound on either side leaves a row that
// did not regress unresolved: the runs cannot tell "unchanged" from
// "a bound's worth worse". A side without runs, or a metric that reads 0
// (none of them ever should), is missing.
func judge(a, b side, better string, bound float64) string {
	if len(a.values) == 0 || len(b.values) == 0 || a.median == 0 {
		return verdictMissing
	}
	worse := (b.median - a.median) / a.median
	if better == "higher" {
		worse = -worse
	}
	spread := max(a.spread, b.spread)
	switch {
	case worse > bound:
		return verdictRegressed
	case spread > bound:
		return verdictUnresolved
	case -worse > spread && -worse > 0:
		return verdictImproved
	default:
		return verdictUnchanged
	}
}

// compareFiles prints one row per workload × end-to-end metric that
// BENCHMARK.json lists and returns the exit code: 1 when anything
// regressed, more operations failed, or a row is missing from either file
// (a workload that crashed or was skipped must not pass for unchanged).
func compareFiles(specPath, pathA, pathB string, stdout, stderr io.Writer) int {
	spec, err := readSpec(specPath)
	if err == nil && len(spec.EndToEnd) == 0 {
		err = fmt.Errorf("%s: no end_to_end metrics", specPath)
	}
	var a, b []record
	if err == nil {
		a, err = readRecords(pathA)
	}
	if err == nil {
		b, err = readRecords(pathB)
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	bad := false
	var notes []string // what runs said beside their metrics: limits missed, a late generator
	tw := tabwriter.NewWriter(stdout, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\ta median\ta spread\tb median\tb spread\tchange\tbound\tverdict")
	for _, w := range spec.Workloads {
		// runs are a file's untraced runs of this workload.
		runs := func(recs []record) (runs []record) {
			for _, r := range recs {
				if r.Workload == w.Name && r.Trace == 0 {
					runs = append(runs, r)
				}
			}
			return runs
		}
		values := func(runs []record, metric string) (values []float64) {
			for _, r := range runs {
				if m, ok := r.Metrics[metric]; ok {
					values = append(values, m.Value)
				}
			}
			return values
		}
		failRatio := func(runs []record) float64 {
			var attempted, failed int64
			for _, r := range runs {
				attempted, failed = attempted+r.Attempted, failed+r.Failed
			}
			return per(float64(failed), float64(attempted))
		}
		ra, rb := runs(a), runs(b)
		for _, m := range spec.EndToEnd {
			sa, sb := summarize(values(ra, m.Name)), summarize(values(rb, m.Name))
			verdict := judge(sa, sb, m.Better, m.Bound)
			bad = bad || verdict == verdictRegressed || verdict == verdictMissing
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.1f%%\t%.6g\t%.1f%%\t%+.1f%%\t%.0f%%\t%s\n",
				w.Name, m.Name, m.Unit, sa.median, 100*sa.spread, sb.median, 100*sb.spread,
				100*per(sb.median-sa.median, sa.median), 100*m.Bound, verdict)
		}
		fa, fb := failRatio(ra), failRatio(rb)
		verdict := verdictUnchanged
		if fb > fa {
			verdict, bad = verdictRegressed, true
		}
		fmt.Fprintf(tw, "%s\tfail_ratio\t1\t%.6g\t\t%.6g\t\t\t\t%s\n", w.Name, fa, fb, verdict)
		for _, file := range []struct {
			name string
			runs []record
		}{{"a", ra}, {"b", rb}} {
			noted := 0
			for _, r := range file.runs {
				if len(r.Notes) > 0 {
					noted++
					notes = append(notes, fmt.Sprintf("%s, %s, seed %d: %s", w.Name, file.name, r.Seed, strings.Join(r.Notes, "; ")))
				}
			}
			if noted > 0 {
				notes = append(notes, fmt.Sprintf("%s: %d of %s's %d runs carry notes", w.Name, noted, file.name, len(file.runs)))
			}
		}
	}
	tw.Flush()
	for _, note := range notes {
		fmt.Fprintln(stdout, "note:", note)
	}
	if bad {
		return 1
	}
	return 0
}
