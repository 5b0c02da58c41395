package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// compareFiles prints, per workload and metric, the median of each
// result file's runs and the change from the first file to the
// second, with each side's spread (interquartile range over median).
// Result files are written by --out: one JSON record per run.
func compareFiles(w io.Writer, oldPath, newPath string) error {
	oldRecs, err := readRecords(oldPath)
	if err != nil {
		return err
	}
	newRecs, err := readRecords(newPath)
	if err != nil {
		return err
	}
	return compare(w, oldRecs, newRecs)
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// series collects one metric's values across runs of one workload and
// mode.
type seriesKey struct {
	workload string
	traced   bool
	metric   string
}

func group(recs []record) (map[seriesKey][]float64, map[seriesKey]string) {
	vals := map[seriesKey][]float64{}
	units := map[seriesKey]string{}
	for _, r := range recs {
		for name, m := range r.Metrics {
			k := seriesKey{r.Workload, r.Traced, name}
			vals[k] = append(vals[k], m.Value)
			units[k] = m.Unit
		}
	}
	return vals, units
}

func compare(w io.Writer, oldRecs, newRecs []record) error {
	oldVals, units := group(oldRecs)
	newVals, newUnits := group(newRecs)
	for k, u := range newUnits {
		units[k] = u
	}
	keys := make([]seriesKey, 0, len(units))
	for k := range units {
		keys = append(keys, k)
	}
	order := metricOrder()
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.workload != b.workload {
			return a.workload < b.workload
		}
		if a.traced != b.traced {
			return !a.traced
		}
		return order[a.metric] < order[b.metric]
	})
	var last seriesKey
	for i, k := range keys {
		if i == 0 || k.workload != last.workload || k.traced != last.traced {
			mode := "untraced"
			if k.traced {
				mode = "traced"
			}
			fmt.Fprintf(w, "\n%s (%s): runs old=%d new=%d\n", k.workload, mode, countRuns(oldRecs, k), countRuns(newRecs, k))
			fmt.Fprintf(w, "  %-32s %14s %14s %12s %9s  %s\n", "metric", "old median", "new median", "delta", "delta%", "spread old/new")
		}
		last = k
		om, os := medianSpread(oldVals[k])
		nm, ns := medianSpread(newVals[k])
		delta := nm - om
		pct := "n/a"
		if om != 0 && len(oldVals[k]) > 0 && len(newVals[k]) > 0 {
			pct = fmt.Sprintf("%+.1f%%", 100*delta/math.Abs(om))
		}
		fmt.Fprintf(w, "  %-32s %14.6g %14.6g %12.4g %9s  %s/%s %s\n", k.metric, om, nm, delta, pct, os, ns, units[k])
	}
	return nil
}

func countRuns(recs []record, k seriesKey) int {
	n := 0
	for _, r := range recs {
		if r.Workload == k.workload && r.Traced == k.traced {
			n++
		}
	}
	return n
}

// medianSpread returns the median and the interquartile range as a
// share of the median ("-" when it cannot be computed).
func medianSpread(v []float64) (float64, string) {
	if len(v) == 0 {
		return math.NaN(), "-"
	}
	m := median(append([]float64(nil), v...))
	q1, _, q3, ok := quartiles(v)
	if !ok || m == 0 {
		return m, "-"
	}
	return m, fmt.Sprintf("%.1f%%", 100*(q3-q1)/math.Abs(m))
}
