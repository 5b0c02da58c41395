package main

import (
	"bytes"
	"strings"
	"testing"
)

func rec(workload string, traced bool, vals map[string]float64) record {
	r := record{Workload: workload, Traced: traced, Metrics: map[string]metricValue{}}
	for n, v := range vals {
		r.Metrics[n] = metricValue{Value: v, Unit: "s"}
	}
	return r
}

func TestCompareMediansAndDeltas(t *testing.T) {
	old := []record{
		rec("portal-flood", false, map[string]float64{"run_s": 4}),
		rec("portal-flood", false, map[string]float64{"run_s": 6}),
		rec("portal-flood", false, map[string]float64{"run_s": 5}),
	}
	cur := []record{
		rec("portal-flood", false, map[string]float64{"run_s": 4.5}),
		rec("portal-flood", false, map[string]float64{"run_s": 3.5}),
		rec("garli-search", false, map[string]float64{"run_s": 2}),
	}
	var b bytes.Buffer
	if err := compare(&b, old, cur); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "portal-flood (untraced): runs old=3 new=2") {
		t.Fatalf("missing flood header:\n%s", out)
	}
	// Flood medians 5 → 4: -20%. garli-search has no old runs: n/a.
	for _, want := range []string{"-20.0%", "n/a"} {
		if !strings.Contains(out, want) {
			t.Errorf("compare output lacks %q:\n%s", want, out)
		}
	}
}
