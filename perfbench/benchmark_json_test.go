package main

import (
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json, the benchmark's declaration.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func readBenchmarkFile(t *testing.T) (*benchmarkFile, map[string]json.RawMessage) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	return &b, raw
}

func TestBenchmarkJSONShape(t *testing.T) {
	b, raw := readBenchmarkFile(t)
	var keys []string
	for k := range raw {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}
	if len(keys) != len(want) {
		t.Fatalf("top-level keys %v, want %v", keys, want)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("top-level keys %v, want %v", keys, want)
		}
	}
	if n := len(b.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(b.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	if n := len(b.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", b.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q does not match %s", kind, n, nameRE)
		}
		if seen[n] {
			t.Errorf("%s name %q used twice", kind, n)
		}
		seen[n] = true
	}
	for _, w := range b.Workloads {
		name("workload", w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be 1 to 200 characters", w.Name)
		}
	}
	setup := false
	for _, m := range b.EndToEnd {
		name("end-to-end", m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end %s: bad unit %q or better %q", m.Name, m.Unit, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error(`end-to-end metrics need setup_s in "s", better "lower"`)
	}
	for _, m := range b.PerLayer {
		name("per-layer", m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer %s: bad unit %q or better %q", m.Name, m.Unit, m.Better)
		}
	}
}

// TestBenchmarkJSONMatchesCode keeps the declaration and the metrics
// the program prints in step: same names, same units, same order.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, _ := readBenchmarkFile(t)
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the code %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end %d: json %s/%s, code %s/%s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the code %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer %d: json %s/%s, code %s/%s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: json %s, code %s", i, w.Name, workloads[i].name)
		}
	}
}
