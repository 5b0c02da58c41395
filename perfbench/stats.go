package main

import (
	"math"
	"sort"

	"lattice/internal/obs"
)

// tailCandidates are the percentiles a tail is reported at, lowest
// first. A tail is the highest of them with at least minBeyond samples
// ranked above it, so the reported percentile is never a handful of
// outliers.
var tailCandidates = []float64{50, 90, 99, 99.9, 99.99, 99.999}

const minBeyond = 10

// tailPercentile picks the highest candidate percentile that leaves at
// least ten of n samples beyond its nearest-rank position. With fewer
// than twenty samples no percentile qualifies and the median (50) is
// returned.
func tailPercentile(n int) float64 {
	best := tailCandidates[0]
	for _, p := range tailCandidates {
		if n-nearestRank(p, n) >= minBeyond {
			best = p
		}
	}
	return best
}

// nearestRank is the 1-based rank of percentile p among n samples.
func nearestRank(p float64, n int) int {
	// The epsilon keeps float error in p/100·n (99.9% of 10000 is
	// 9990.000000000002) from pushing the rank up by one.
	k := int(math.Ceil(p/100*float64(n) - 1e-9))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// timing is a median plus tail summary of a set of samples.
type timing struct {
	P50  float64
	Tail float64
	// TailP is the percentile Tail was read at; N the sample count.
	TailP float64
	N     int
}

// summarize applies the median-plus-tail rule to samples (reordered in
// place). Empty input yields the zero timing.
func summarize(samples []float64) timing {
	n := len(samples)
	if n == 0 {
		return timing{}
	}
	sort.Float64s(samples)
	p := tailPercentile(n)
	return timing{
		P50:   median(samples),
		Tail:  samples[nearestRank(p, n)-1],
		TailP: p,
		N:     n,
	}
}

// median of v (reordered in place); 0 for empty input.
func median(v []float64) float64 {
	n := len(v)
	if n == 0 {
		return 0
	}
	sort.Float64s(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// quartiles returns the three cut points of v exactly as Python's
// statistics.quantiles(v, n=4) computes them (the "exclusive" method),
// so spreads printed here match the ones the acceptance rule uses.
// It needs at least two values.
func quartiles(v []float64) (q1, q2, q3 float64, ok bool) {
	d := append([]float64(nil), v...)
	sort.Float64s(d)
	ld := len(d)
	if ld < 2 {
		return 0, 0, 0, false
	}
	m := ld + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		out[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2], true
}

// histTail reads the median-plus-tail summary of a merged obs
// histogram: percentiles are interpolated linearly inside the bucket
// they land in, and the +Inf bucket yields its lower edge.
func histTail(buckets []obs.Bucket, count uint64) timing {
	n := int(count)
	if n == 0 {
		return timing{}
	}
	p := tailPercentile(n)
	return timing{
		P50:   histQuantile(buckets, count, 0.5),
		Tail:  histQuantile(buckets, count, p/100),
		TailP: p,
		N:     n,
	}
}

func histQuantile(buckets []obs.Bucket, count uint64, q float64) float64 {
	target := q * float64(count)
	lo, cumPrev := 0.0, 0.0
	for _, b := range buckets {
		cum := float64(b.Count)
		if cum >= target {
			in := cum - cumPrev
			if in <= 0 || math.IsInf(b.UpperBound, 1) || b.UpperBound > 1e18 {
				return lo
			}
			return lo + (target-cumPrev)/in*(b.UpperBound-lo)
		}
		lo, cumPrev = b.UpperBound, cum
	}
	return lo
}

// mergeHist sums same-named histogram series (across resources and
// shards) into one bucket list. Every series of one name shares its
// bounds, as obs registers them per family.
func mergeHist(snaps [][]obs.SeriesSnapshot, name string) ([]obs.Bucket, uint64) {
	var out []obs.Bucket
	var count uint64
	for _, ss := range snaps {
		for _, s := range ss {
			if s.Name != name || s.Kind != obs.KindHistogram {
				continue
			}
			if out == nil {
				out = make([]obs.Bucket, len(s.Buckets))
				for i, b := range s.Buckets {
					out[i].UpperBound = b.UpperBound
				}
			}
			for i, b := range s.Buckets {
				if i < len(out) {
					out[i].Count += b.Count
				}
			}
			count += s.Count
		}
	}
	return out, count
}

// sumSeries adds up every counter or gauge series of one name.
func sumSeries(snaps [][]obs.SeriesSnapshot, name string) float64 {
	total := 0.0
	for _, ss := range snaps {
		for _, s := range ss {
			if s.Name == name {
				total += s.Value
			}
		}
	}
	return total
}
