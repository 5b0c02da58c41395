package main

import (
	"runtime"
	"runtime/metrics"
	"time"
)

// Runtime counters read at phase boundaries. runtime/metrics reads do
// not stop the world, so they are cheap enough to take around every
// setup, run and probe segment.
const (
	mAllocBytes   = "/gc/heap/allocs:bytes"
	mAllocObjects = "/gc/heap/allocs:objects"
	mGCCycles     = "/gc/cycles/total:gc-cycles"
	mGCCPU        = "/cpu/classes/gc/total:cpu-seconds"
	mGCPauses     = "/sched/pauses/total/gc:seconds"
	mHeapObjects  = "/memory/classes/heap/objects:bytes"
)

// goStats is one reading of the runtime counters the go.* metrics use.
type goStats struct {
	allocBytes, allocObjects, gcCycles uint64
	gcCPU, gcPause                     float64
}

func readGoStats() goStats {
	s := []metrics.Sample{
		{Name: mAllocBytes}, {Name: mAllocObjects}, {Name: mGCCycles},
		{Name: mGCCPU}, {Name: mGCPauses},
	}
	metrics.Read(s)
	return goStats{
		allocBytes:   s[0].Value.Uint64(),
		allocObjects: s[1].Value.Uint64(),
		gcCycles:     s[2].Value.Uint64(),
		gcCPU:        s[3].Value.Float64(),
		gcPause:      histSum(s[4].Value),
	}
}

// histSum approximates the total of a runtime/metrics histogram by
// its bucket midpoints (the runtime exposes pause times only as a
// histogram).
func histSum(v metrics.Value) float64 {
	if v.Kind() != metrics.KindFloat64Histogram {
		return 0
	}
	h := v.Float64Histogram()
	total := 0.0
	for i, n := range h.Counts {
		if n == 0 {
			continue
		}
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		switch {
		case lo < -1e300:
			lo = hi
		case hi > 1e300:
			hi = lo
		}
		total += float64(n) * (lo + hi) / 2
	}
	return total
}

func (a goStats) sub(b goStats) goStats {
	return goStats{
		allocBytes:   a.allocBytes - b.allocBytes,
		allocObjects: a.allocObjects - b.allocObjects,
		gcCycles:     a.gcCycles - b.gcCycles,
		gcCPU:        a.gcCPU - b.gcCPU,
		gcPause:      a.gcPause - b.gcPause,
	}
}

func (a *goStats) add(b goStats) {
	a.allocBytes += b.allocBytes
	a.allocObjects += b.allocObjects
	a.gcCycles += b.gcCycles
	a.gcCPU += b.gcCPU
	a.gcPause += b.gcPause
}

// meter accumulates wall time and runtime counters over the segments
// of one phase (a run interrupted by recovery probes is two or more
// segments of one phase).
type meter struct {
	wall  time.Duration
	stats goStats

	t0 time.Time
	s0 goStats
}

func (m *meter) start() {
	m.s0 = readGoStats()
	m.t0 = time.Now()
}

func (m *meter) stop() {
	m.wall += time.Since(m.t0)
	m.stats.add(readGoStats().sub(m.s0))
}

// liveHeapBytes forces a collection and reports the bytes of live heap
// objects left — what the deployment retains. The second collection
// empties the sync.Pool victim caches (encoding/json keeps its last
// buffers there, megabytes after a WAL snapshot), which survive one.
func liveHeapBytes() float64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: mHeapObjects}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}
