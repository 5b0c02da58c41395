package main

import (
	"math"
	"testing"

	"lattice/internal/obs"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 50}, {1, 50}, {19, 50}, {20, 50}, // fewer than ten beyond any tail: the median
		{99, 50}, {100, 90}, // p90 of 100 leaves exactly ten above it
		{999, 90}, {1000, 99},
		{9999, 99}, {10000, 99.9},
		{30164, 99.9},
		{1000000, 99.999},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestSummarize(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(100 - i) // 100..1, unsorted
	}
	got := summarize(v)
	want := timing{P50: 50.5, Tail: 90, TailP: 90, N: 100}
	if got != want {
		t.Fatalf("summarize = %+v, want %+v", got, want)
	}
	if (summarize(nil) != timing{}) {
		t.Fatal("summarize(nil) should be the zero timing")
	}
}

// The expected quartiles are Python's statistics.quantiles(v, n=4),
// the rule the benchmark's spreads are judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v    []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.5, 1.25, 9, 2}, [3]float64{1.4375, 2.75, 7.625}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
	} {
		q1, q2, q3, ok := quartiles(c.v)
		if !ok || q1 != c.want[0] || q2 != c.want[1] || q3 != c.want[2] {
			t.Errorf("quartiles(%v) = %g %g %g, want %v", c.v, q1, q2, q3, c.want)
		}
	}
	if _, _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one value should not be ok")
	}
}

func TestHistTail(t *testing.T) {
	// 100 observations: 50 in (0,1], 40 in (1,2], 10 in (2,+Inf).
	buckets := []obs.Bucket{{UpperBound: 1, Count: 50}, {UpperBound: 2, Count: 90}, {UpperBound: math.Inf(1), Count: 100}}
	got := histTail(buckets, 100)
	if got.TailP != 90 || got.N != 100 {
		t.Fatalf("histTail picked p%g of %d, want p90 of 100", got.TailP, got.N)
	}
	if got.P50 != 1 || got.Tail != 2 {
		t.Fatalf("histTail = %+v, want median 1 and p90 2", got)
	}
	// The +Inf bucket yields its lower edge.
	if q := histQuantile(buckets, 100, 0.95); q != 2 {
		t.Fatalf("p95 in the +Inf bucket = %g, want 2", q)
	}
	if q := histQuantile(buckets, 100, 0.25); q != 0.5 {
		t.Fatalf("p25 = %g, want 0.5 by interpolation", q)
	}
}

func TestMergeHist(t *testing.T) {
	series := func(c1, c2 uint64) obs.SeriesSnapshot {
		return obs.SeriesSnapshot{Name: "h", Kind: obs.KindHistogram, Count: c2,
			Buckets: []obs.Bucket{{UpperBound: 1, Count: c1}, {UpperBound: math.Inf(1), Count: c2}}}
	}
	b, n := mergeHist([][]obs.SeriesSnapshot{{series(1, 3)}, {series(2, 2), {Name: "other", Kind: obs.KindCounter, Value: 7}}}, "h")
	if n != 5 || b[0].Count != 3 || b[1].Count != 5 {
		t.Fatalf("mergeHist = %v (n=%d), want cumulative 3, 5 of 5", b, n)
	}
}
