package main

import (
	"math"
	"sync"
	"time"

	"brisk"
)

// quiet discards the pipeline's diagnostics.
func quiet(string, ...any) {}

// Event classes of generated records. Probes and the records a selective
// subscriber asks for get their own classes so filters can tell them
// apart.
const (
	evData     uint8 = 1
	evSelected uint8 = 2
	evProbe    uint8 = 3
	evReason   uint8 = 4
	evConseq   uint8 = 5
)

// selectiveFilter is the selective subscriber's filter, as the engine
// parses it and as the checker states it.
const selectiveFilter = "event=2"

// readSide sizes the subscription engine for loads of up to a million
// records a second: a hot window of a few seconds of traffic, so a
// subscriber is not lapped while the load (or a busy host) holds the
// CPUs, and reads that scan 4096 entries per shard, so a selective
// subscriber needs few calls to skip the records its filter rejects.
func readSide() *brisk.SubscribeOptions {
	return &brisk.SubscribeOptions{WindowBytes: 64 << 20, BatchRecords: 4096}
}

// mix is splitmix64: a cheap, seedable hash for per-record input values.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// gauges tracks the peaks and window rates the poller samples.
type gauges struct {
	mu sync.Mutex

	backlogMax, bufferedMax, heldMax, relayBacklogMax int64

	first, last   time.Time
	batches0      uint64 // wire batches at the first poll of the window
	batches1      uint64
	probes0       uint64 // sync probes
	probes1       uint64
	skewSamples   []float64 // |mutual residual skew|, µs
	seenFirstPoll bool
}

// window records a counter pair at the first and latest poll.
func (g *gauges) window(now time.Time, batches, probes uint64) {
	if !g.seenFirstPoll {
		g.seenFirstPoll = true
		g.first, g.batches0, g.probes0 = now, batches, probes
	}
	g.last, g.batches1, g.probes1 = now, batches, probes
}

func (g *gauges) rate(a, b uint64) float64 {
	d := g.last.Sub(g.first).Seconds()
	if d <= 0 {
		return 0
	}
	return float64(b-a) / d
}

// pollManager samples one manager's gauges.
func (g *gauges) pollManager(st brisk.ManagerStats) {
	g.backlogMax = max(g.backlogMax, int64(st.Received)-int64(st.Emitted))
	g.bufferedMax = max(g.bufferedMax, int64(st.SorterBuffered))
	g.heldMax = max(g.heldMax, int64(st.CRE.HeldNow))
}

// managerLayers fills the ism/ols/cre/clocksync rows from the managers a
// record passes through (summed counts, worst-case peaks).
func managerLayers(m map[string]float64, g *gauges, sts ...brisk.ManagerStats) {
	var batches, deferred, inv, fb, rebuilds, dropped, tach, fallbacks uint64
	var grown int64
	var emitP99 float64
	for _, st := range sts {
		batches += st.Batches
		deferred += st.AckDeferred
		inv += st.Sorter.Inversions
		fb += st.Sorter.HeapFallbacks
		rebuilds += st.Sorter.CalendarRebuilds
		dropped += st.Sorter.DroppedFull
		tach += st.CRE.Tachyons
		fallbacks += st.SyncFallbacks
		grown = max(grown, st.Sorter.GrownTo)
		emitP99 = math.Max(emitP99, st.EmitLatencyP99Micros)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	m["ism.backlog_max"] = float64(g.backlogMax)
	m["ism.ack_deferred"] = float64(deferred)
	m["ism.batches"] = float64(batches)
	m["ism.emit_latency_p99_us"] = emitP99
	m["ols.buffered_max"] = float64(g.bufferedMax)
	m["ols.inversions"] = float64(inv)
	m["ols.heap_fallbacks"] = float64(fb)
	m["ols.calendar_rebuilds"] = float64(rebuilds)
	m["ols.timeframe_max_us"] = float64(grown)
	m["ols.dropped_full"] = float64(dropped)
	m["cre.held_max"] = float64(g.heldMax)
	m["cre.tachyons"] = float64(tach)
	m["clocksync.fallbacks"] = float64(fallbacks)
	m["clocksync.probes_per_s"] = g.rate(g.probes0, g.probes1)
	m["wire.batches_per_s"] = g.rate(g.batches0, g.batches1)
	if len(g.skewSamples) > 0 {
		m["clocksync.residual_skew_us"] = summarize(append([]float64(nil), g.skewSamples...)).P99
	}
}

// nodeLayers fills the exs rows from the nodes' external sensors.
func nodeLayers(m map[string]float64, nodes []*brisk.Node) (ringDropped uint64) {
	var sent, batches, bytes, stalls uint64
	for _, n := range nodes {
		st := n.Stats()
		sent += st.Sent
		batches += st.Batches
		bytes += st.BytesOut
		stalls += st.CreditStalls
		ringDropped += st.RingDropped
	}
	if batches > 0 {
		m["exs.recs_per_batch"] = float64(sent) / float64(batches)
	}
	if sent > 0 {
		m["exs.bytes_per_rec"] = float64(bytes) / float64(sent)
	}
	m["exs.credit_stalls"] = float64(stalls)
	return ringDropped
}
