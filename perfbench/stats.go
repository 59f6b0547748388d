package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"syscall"
	"time"
)

// summary is a timing distribution reduced to what the report prints.
type summary struct {
	N        int
	P50, P99 float64
}

// summarize sorts xs in place and returns its median and p99. The p99 is
// only meaningful with at least ten samples beyond it (n ≥ 1000); the
// report prints n so a reader can judge.
func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	sort.Float64s(xs)
	return summary{N: len(xs), P50: quantile(xs, 0.50), P99: quantile(xs, 0.99)}
}

// quantile interpolates linearly between the order statistics of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// median returns the median of xs without reordering the caller's slice.
func median(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	return quantile(c, 0.5)
}

// procSnap is one reading of the process-wide counters the report
// divides by delivered records.
type procSnap struct {
	wall       time.Time
	userNs     int64
	sysNs      int64
	allocs     uint64
	gcCycles   uint64
	gcPauseSec float64
}

var procSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/gc/pauses:seconds"},
}

func readProc() procSnap {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := procSnap{
		wall:   time.Now(),
		userNs: ru.Utime.Nano(),
		sysNs:  ru.Stime.Nano(),
	}
	samples := append([]metrics.Sample(nil), procSamples...)
	metrics.Read(samples)
	s.allocs = samples[0].Value.Uint64()
	s.gcCycles = samples[1].Value.Uint64()
	s.gcPauseSec = histSum(samples[2].Value.Float64Histogram())
	return s
}

// histSum approximates a runtime/metrics histogram's total by bucket
// midpoints (the runtime exports pause times only as a histogram).
func histSum(h *metrics.Float64Histogram) float64 {
	var sum float64
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		if math.IsInf(lo, -1) {
			lo = hi
		}
		if math.IsInf(hi, 1) {
			hi = lo
		}
		sum += float64(c) * (lo + hi) / 2
	}
	return sum
}

// heapPeak tracks the largest in-use heap seen by sample.
type heapPeak struct {
	max    atomic.Uint64
	sample [1]metrics.Sample
}

func newHeapPeak() *heapPeak {
	h := &heapPeak{}
	h.sample[0].Name = "/memory/classes/heap/objects:bytes"
	return h
}

// observe reads the live-object heap size. Only the poller goroutine
// calls it, so the sample buffer needs no lock.
func (h *heapPeak) observe() {
	metrics.Read(h.sample[:])
	v := h.sample[0].Value.Uint64()
	if v > h.max.Load() {
		h.max.Store(v)
	}
}

// gomaxprocs is read once for the environment stamp.
var gomaxprocs = runtime.GOMAXPROCS(0)
