package bench

import (
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"

	"brisk"
	"brisk/internal/sensor"
	"brisk/internal/shm"
	"brisk/internal/stats"
	"brisk/internal/workload"
)

func quiet(string, ...any) {}

// Rig is a manager with connected nodes, one sensor each: the pipeline
// experiments E2–E5 and the batch ablation drive. E3, E5 and the
// ablation load it with Push.
type Rig struct {
	Manager *brisk.Manager
	Nodes   []*brisk.Node
	sensors []*brisk.Sensor
	pushed  int
}

// StartRig starts a manager and connects `nodes` nodes to it, with the
// given options and logging off. Close releases them.
func StartRig(mopts brisk.ManagerOptions, nopts brisk.NodeOptions, nodes int) (*Rig, error) {
	mopts.Logf, nopts.Logf = quiet, quiet
	mgr, err := brisk.StartManager(mopts)
	if err != nil {
		return nil, err
	}
	r := &Rig{Manager: mgr}
	nopts.ManagerAddr = mgr.Addr()
	for i := 0; i < nodes; i++ {
		node, err := brisk.ConnectNode(nopts)
		if err != nil {
			r.Close()
			return nil, fmt.Errorf("bench: connecting node %d of %d: %w", i+1, nodes, err)
		}
		r.Nodes = append(r.Nodes, node)
		r.sensors = append(r.sensors, node.NewSensor("push", brisk.SensorOptions{RingBytes: 1 << 22}))
	}
	return r, nil
}

// Push has every node push perNode unpaced six-int notices (the paper's
// 40-byte record) at once, then flushes the nodes until the manager has
// emitted every data record past the sorter. It returns the time from
// the first notice to the last emission. A notice the full ring refuses
// is retried, so the result is the pipeline's sustained delivered rate,
// not the rate at which the ring can shed load; the loss markers the EXS
// ships for those refusals reach the sinks too, and do not count.
func (r *Rig) Push(perNode int) (time.Duration, error) {
	r.pushed += perNode * len(r.sensors)
	start := time.Now()
	var wg sync.WaitGroup
	for i, s := range r.sensors {
		wg.Add(1)
		go func(node *brisk.Node) {
			defer wg.Done()
			for j := 0; j < perNode; j++ {
				for !s.Notice6i(1, int32(j), 2, 3, 4, 5, 6) {
					runtime.Gosched()
				}
			}
			node.Flush()
		}(r.Nodes[i])
	}
	wg.Wait()
	deadline := time.Now().Add(180 * time.Second)
	for {
		// The manager's count is read before the nodes' marker counts,
		// so every marker it includes is subtracted.
		data := int64(r.Manager.Stats().Emitted)
		for _, node := range r.Nodes {
			data -= int64(node.Stats().LossMarkers)
		}
		if data >= int64(r.pushed) {
			return time.Since(start), nil
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("bench: manager emitted %d of %d data records", data, r.pushed)
		}
		for _, node := range r.Nodes {
			node.Flush()
		}
		time.Sleep(time.Millisecond)
	}
}

// Close closes the nodes, then the manager.
func (r *Rig) Close() {
	for _, node := range r.Nodes {
		node.Close()
	}
	r.Manager.Close()
}

// pushNode is the node configuration of every node-push experiment.
var pushNode = brisk.NodeOptions{FlushInterval: time.Millisecond, PollInterval: 100 * time.Microsecond}

// ThroughputResult is experiment E3: the maximum sustainable EXS→ISM
// event rate for the paper's 40-byte records.
type ThroughputResult struct {
	Events   int
	Elapsed  time.Duration
	EventsPS float64
	MBytesPS float64
	// RingRefusals counts notices the full ring refused and the bench
	// retried; none of them is lost.
	RingRefusals uint64
}

// RunThroughput measures E3 by pushing events unpaced through one node
// into the manager until all are delivered.
func RunThroughput(events int) (ThroughputResult, error) {
	if events <= 0 {
		events = 500_000
	}
	rig, err := StartRig(brisk.ManagerOptions{MergeInterval: time.Millisecond, BufferRecords: 4096}, pushNode, 1)
	if err != nil {
		return ThroughputResult{}, err
	}
	defer rig.Close()
	elapsed, err := rig.Push(events)
	if err != nil {
		return ThroughputResult{}, err
	}
	return ThroughputResult{
		Events:       events,
		Elapsed:      elapsed,
		EventsPS:     float64(events) / elapsed.Seconds(),
		MBytesPS:     float64(rig.Manager.Stats().BytesIn) / 1e6 / elapsed.Seconds(),
		RingRefusals: rig.Nodes[0].Stats().RingDropped,
	}, nil
}

// Table renders E3.
func (r ThroughputResult) Table() *Table {
	t := &Table{
		Title:  "E3: EXS→ISM throughput (paper: max ≈ 90,000 events/s)",
		Header: []string{"events", "elapsed", "events/s", "MB/s", "ring refusals (retried)"},
	}
	t.Add(r.Events, r.Elapsed.Round(time.Millisecond), r.EventsPS, r.MBytesPS, r.RingRefusals)
	return t
}

// LatencyRow is one knob setting of experiment E4.
type LatencyRow struct {
	FlushInterval time.Duration
	MergeInterval time.Duration
	MeanMicros    float64
	P99Micros     float64
	MaxMicros     float64
}

// RunLatency measures E4: end-to-end latency (notice to consumer) as a
// function of the batching/merging knobs — the waiting-call bound the
// paper identifies as the worst-case latency floor.
func RunLatency(eventsPerSetting int) ([]LatencyRow, error) {
	if eventsPerSetting <= 0 {
		eventsPerSetting = 200
	}
	type setting struct{ flush, merge time.Duration }
	settings := []setting{
		{500 * time.Microsecond, time.Millisecond},
		{2 * time.Millisecond, 2 * time.Millisecond},
		{5 * time.Millisecond, 5 * time.Millisecond},
		{10 * time.Millisecond, 10 * time.Millisecond},
		{20 * time.Millisecond, 20 * time.Millisecond},
		{40 * time.Millisecond, 40 * time.Millisecond},
	}
	var rows []LatencyRow
	for _, cfg := range settings {
		rig, err := StartRig(brisk.ManagerOptions{MergeInterval: cfg.merge, Sorter: brisk.SorterOptions{InitialT: 100}},
			brisk.NodeOptions{FlushInterval: cfg.flush}, 1)
		if err != nil {
			return nil, err
		}
		s, c := rig.sensors[0], rig.Manager.Consume()
		res := stats.NewReservoir(eventsPerSetting)
		var run stats.Running
		for i := 0; i < eventsPerSetting; i++ {
			t0 := time.Now()
			s.Notice2i(1, int32(i), 0)
			for {
				if _, ok := c.TryNext(); ok {
					break
				}
				time.Sleep(20 * time.Microsecond)
			}
			d := float64(time.Since(t0).Microseconds())
			res.Add(d)
			run.Add(d)
			time.Sleep(time.Millisecond)
		}
		rig.Close()
		rows = append(rows, LatencyRow{
			FlushInterval: cfg.flush,
			MergeInterval: cfg.merge,
			MeanMicros:    run.Mean(),
			P99Micros:     res.Quantile(0.99),
			MaxMicros:     run.Max(),
		})
	}
	return rows, nil
}

// LatencyTable renders E4.
func LatencyTable(rows []LatencyRow) *Table {
	t := &Table{
		Title:  "E4: end-to-end latency vs batching knobs (paper: waiting calls bound worst case ≈ 40 ms)",
		Header: []string{"flush", "merge", "mean µs", "p99 µs", "max µs"},
	}
	for _, r := range rows {
		t.Add(r.FlushInterval, r.MergeInterval, r.MeanMicros, r.P99Micros, r.MaxMicros)
	}
	return t
}

// ScaleRow is one cluster size of experiment E5.
type ScaleRow struct {
	Nodes       int
	AggregatePS float64
	PerNodePS   float64
}

// RunScale measures E5: aggregate manager throughput as nodes are added,
// each node pushing unpaced. The paper found the ISM's CPU demand the
// bottleneck, with aggregate throughput roughly constant from 1 to 8
// nodes.
func RunScale(maxNodes int, perNodeEvents int) ([]ScaleRow, error) {
	if maxNodes <= 0 {
		maxNodes = 8
	}
	if perNodeEvents <= 0 {
		perNodeEvents = 100_000
	}
	var rows []ScaleRow
	for n := 1; n <= maxNodes; n++ {
		rig, err := StartRig(brisk.ManagerOptions{MergeInterval: time.Millisecond, BufferRecords: 4096}, pushNode, n)
		if err != nil {
			return nil, err
		}
		elapsed, err := rig.Push(perNodeEvents)
		rig.Close()
		if err != nil {
			return nil, fmt.Errorf("bench: scale n=%d: %w", n, err)
		}
		agg := float64(n*perNodeEvents) / elapsed.Seconds()
		rows = append(rows, ScaleRow{Nodes: n, AggregatePS: agg, PerNodePS: agg / float64(n)})
	}
	return rows, nil
}

// ScaleTable renders E5.
func ScaleTable(rows []ScaleRow) *Table {
	t := &Table{
		Title:  "E5: aggregate throughput vs nodes (paper: ≈constant, ISM CPU-bound, 1–8 EXS)",
		Header: []string{"nodes", "aggregate events/s", "per-node events/s"},
	}
	for _, r := range rows {
		t.Add(r.Nodes, r.AggregatePS, r.PerNodePS)
	}
	return t
}

// UtilRow is one event rate of experiment E2.
type UtilRow struct {
	RatePS      int
	TotalCPUPct float64
	ExsCPUPct   float64
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// RunEXSUtil measures E2: the external sensor's CPU share while the node
// runs a paced application. Since application and external sensor share
// one process here, the EXS share is estimated differentially: total CPU
// of the full pipeline minus the CPU of the same paced application whose
// ring is drained by a no-op collector.
func RunEXSUtil(rates []int, dur time.Duration) ([]UtilRow, error) {
	if len(rates) == 0 {
		rates = []int{1000, 5000, 10000, 20000, 38000}
	}
	if dur <= 0 {
		dur = 2 * time.Second
	}
	var rows []UtilRow
	for _, rate := range rates {
		// Baseline: paced application + no-op drain, no EXS/manager.
		base, err := runBaseline(rate, dur)
		if err != nil {
			return nil, err
		}
		// Full pipeline.
		rig, err := StartRig(brisk.ManagerOptions{MergeInterval: 2 * time.Millisecond, BufferRecords: 1024},
			brisk.NodeOptions{FlushInterval: 5 * time.Millisecond}, 1)
		if err != nil {
			return nil, err
		}
		l := &workload.Looper{Sensor: rig.sensors[0], Event: 1, Rate: rate}
		c0 := cpuTime()
		start := time.Now()
		l.RunFor(dur)
		elapsed := time.Since(start)
		full := cpuTime() - c0
		rig.Close()

		totalPct := 100 * full.Seconds() / elapsed.Seconds()
		exsPct := 100 * (full - base).Seconds() / elapsed.Seconds()
		if exsPct < 0 {
			exsPct = 0
		}
		rows = append(rows, UtilRow{RatePS: rate, TotalCPUPct: totalPct, ExsCPUPct: exsPct})
	}
	return rows, nil
}

// runBaseline runs the paced application alone (ring drained by a no-op
// goroutine standing in for "no external sensor") and returns CPU used.
func runBaseline(rate int, dur time.Duration) (time.Duration, error) {
	region := shm.NewRegion()
	s := sensor.New(region, "base", sensor.Options{RingBytes: 1 << 22})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				for _, ring := range region.Rings() {
					ring.Drain(0, func([]byte) {})
				}
				time.Sleep(500 * time.Microsecond)
			}
		}
	}()
	l := &workload.Looper{Sensor: s, Event: 1, Rate: rate}
	c0 := cpuTime()
	l.RunFor(dur)
	base := cpuTime() - c0
	close(stop)
	wg.Wait()
	return base, nil
}

// UtilTable renders E2.
func UtilTable(rows []UtilRow) *Table {
	t := &Table{
		Title:  "E2: EXS CPU share at fixed event rates (paper: < 1 % up to 38,000 events/s)",
		Header: []string{"events/s", "pipeline CPU %", "EXS share %"},
	}
	for _, r := range rows {
		t.Add(r.RatePS, r.TotalCPUPct, r.ExsCPUPct)
	}
	return t
}

// BatchRow is one batch-size setting of the E3 batching ablation.
type BatchRow struct {
	BatchBytes int
	EventsPS   float64
	Batches    uint64
}

// RunBatchAblation sweeps the external sensor's batch-size knob at a
// fixed event volume: the throughput/latency trade the paper's "batching,
// latency control" stage exists to tune.
func RunBatchAblation(events int) ([]BatchRow, error) {
	if events <= 0 {
		events = 200_000
	}
	var rows []BatchRow
	for _, bb := range []int{512, 2048, 16384, 65536} {
		nopts := pushNode
		nopts.BatchBytes = bb
		rig, err := StartRig(brisk.ManagerOptions{MergeInterval: time.Millisecond, BufferRecords: 1024}, nopts, 1)
		if err != nil {
			return nil, err
		}
		elapsed, err := rig.Push(events)
		batches := rig.Nodes[0].Stats().Batches
		rig.Close()
		if err != nil {
			return nil, err
		}
		rows = append(rows, BatchRow{
			BatchBytes: bb,
			EventsPS:   float64(events) / elapsed.Seconds(),
			Batches:    batches,
		})
	}
	return rows, nil
}

// BatchTable renders the batching ablation.
func BatchTable(rows []BatchRow) *Table {
	t := &Table{
		Title:  "E3 ablation: throughput vs batch size (the EXS batching knob)",
		Header: []string{"batch bytes", "events/s", "batches sent"},
	}
	for _, r := range rows {
		t.Add(r.BatchBytes, r.EventsPS, r.Batches)
	}
	return t
}
