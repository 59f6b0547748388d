package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"brisk"
	"brisk/internal/record"
)

const (
	// setupRuns is how many times a run starts the pipeline; setup_s is
	// the median, and the last instance carries the measured load.
	setupRuns = 9
	// warmup runs load before the measured window so connections,
	// buffers and the sorter's time frame reach steady state.
	warmup = 1 * time.Second
	// drainTimeout bounds the wait for the last records after load stops.
	drainTimeout = 20 * time.Second
	// probeTimeout bounds one set-up.
	probeTimeout = 20 * time.Second
	// captureRecords is how many delivered records the traced run keeps
	// for the per-layer replay.
	captureRecords = 1 << 16
	// chunkNs is the length of one timed chunk of notices or sends.
	chunkNs = int64(time.Millisecond)
)

// workload is one traffic pattern driven through the real pipeline.
type workload interface {
	// sources is the number of logical (source, seq) streams.
	sources() int
	// start launches the pipeline into rg (registering closers and the
	// consumer) and issues one probe record, seq 0, from every source.
	start(rg *rig) error
	// drive issues the measured load until stop closes.
	drive(rg *rig, stop <-chan struct{})
	// flush pushes out anything buffered at the edge after load stops.
	flush(rg *rig)
	// issued returns the records issued per source, probes included.
	issued() []int64
	// poll samples the pipeline's gauges for the per-layer peaks.
	poll(rg *rig)
	// finish gathers the per-layer counters and the accounting the
	// checker needs, before the pipeline closes.
	finish(rg *rig) (map[string]float64, accounting)
	// sched returns the wall time, in ns, a record was due (open loop) or
	// stamped (closed loop); latency is measured from it.
	sched(src, seq int32, r *record.Record) int64
	// loadStats returns what the load generator measured itself.
	loadStats() loadStats
	// replayInput shapes the traced run's captured input for the layer
	// replays.
	replayInput(captured []record.Record, layers map[string]float64) (replayInput, error)
}

// rig is one running instance of a workload's pipeline plus the
// benchmark's readers attached to it.
type rig struct {
	tr *tracer
	// span is the current phase's span, the parent of the calls made in
	// it; set before the phase's goroutines start.
	span    uint64
	chk     *checker
	cons    *brisk.Consumer
	subs    []*subReader
	closers []func()

	sched      func(src, seq int32, r *record.Record) int64
	sampleMask int32        // consumer latency is sampled when seq&mask == 0
	window     atomic.Bool  // the measured window is open
	windowAt   atomic.Int64 // UnixNano the window opened
	lat        [][]float64  // consumer latency samples (ns), per second of the window

	capture  bool
	captured []record.Record

	consDone chan struct{}
}

// subReader is one live subscriber drained by its own goroutine.
type subReader struct {
	name    string
	sub     *brisk.Subscription
	keys    []uint64
	lat     [][]float64 // per second of the window
	dropped uint64
	done    chan struct{}
}

// onClose registers a shutdown step; steps run in reverse order.
func (rg *rig) onClose(f func()) { rg.closers = append(rg.closers, f) }

func (rg *rig) close() {
	for i := len(rg.closers) - 1; i >= 0; i-- {
		rg.closers[i]()
	}
	rg.closers = nil
}

// addSub attaches a subscriber with the engine's filter expr and the
// checker's own statement of the same filter.
func (rg *rig) addSub(eng *brisk.SubscriptionEngine, name, expr string) error {
	f, err := brisk.ParseSubscribeFilter(expr)
	if err != nil {
		return fmt.Errorf("subscriber %s: %w", name, err)
	}
	sub, err := eng.Subscribe(f, false)
	if err != nil {
		return fmt.Errorf("subscriber %s: %w", name, err)
	}
	rg.subs = append(rg.subs, &subReader{name: name, sub: sub, done: make(chan struct{})})
	return nil
}

// awaitProbes reads the consumer until seq 0 of every source arrived.
func (rg *rig) awaitProbes() error {
	deadline := time.Now().Add(probeTimeout)
	for !rg.chk.seenAll(0) {
		start := rg.tr.now()
		n := 0
		for {
			r, ok := rg.cons.TryNext()
			if !ok {
				break
			}
			rg.chk.observe(&r)
			n++
		}
		rg.tr.end(rg.span, 0, "consumer.trynext", start, n)
		if time.Now().After(deadline) {
			return errors.New("set-up: probe records did not reach the consumer")
		}
		if n == 0 {
			time.Sleep(50 * time.Microsecond)
		}
	}
	return nil
}

// startReaders launches the consumer and subscriber goroutines. They end
// when the manager closes.
func (rg *rig) startReaders(parent uint64) {
	rg.consDone = make(chan struct{})
	go rg.consume(parent)
	for _, s := range rg.subs {
		go rg.readSub(s, parent)
	}
}

// consume drains the consumer through the checker. Each chunk of up to
// 1024 records (or one blocking wait) is one span.
func (rg *rig) consume(parent uint64) {
	defer close(rg.consDone)
	req := uint64(0)
	for {
		start := rg.tr.now()
		req++
		n := 0
		var open bool
		for n < 1024 {
			r, ok := rg.cons.Next()
			if !ok {
				rg.tr.end(parent, req, "consumer.next", start, n)
				return
			}
			now := time.Now().UnixNano()
			src, seq, ok := rg.chk.observe(&r)
			n++
			open = rg.window.Load()
			if ok && open && seq&rg.sampleMask == 0 {
				sec := rg.second(now)
				rg.lat[sec] = append(rg.lat[sec], float64(now-rg.sched(src, seq, &r)))
			}
			if ok && open && rg.capture && len(rg.captured) < captureRecords {
				rg.captured = append(rg.captured, r)
			}
		}
		rg.tr.end(parent, req, "consumer.next", start, n)
	}
}

// readSub drains one subscription, recording its keys for the stream
// equality check and its delivery latency.
func (rg *rig) readSub(s *subReader, parent uint64) {
	defer close(s.done)
	ctx := context.Background()
	req := uint64(0)
	for {
		start := rg.tr.now()
		req++
		evs, err := s.sub.Next(ctx)
		rg.tr.end(parent, req, "subscription.next", start, len(evs))
		if err != nil {
			if !errors.Is(err, io.EOF) {
				s.dropped++ // unreachable with a background context
			}
			return
		}
		now := time.Now().UnixNano()
		open := rg.window.Load()
		for i := range evs {
			r := &evs[i].Record
			if record.IsLossMarker(r) {
				n, _, _, _ := record.LossInfo(r)
				s.dropped += n
				continue
			}
			src, seq, ok := keyOf(r)
			if !ok {
				continue
			}
			s.keys = append(s.keys, packKey(src, seq))
			if open {
				sec := rg.second(now)
				s.lat[sec] = append(s.lat[sec], float64(now-rg.sched(src, seq, r)))
			}
		}
	}
}

// passResult is everything one pass (set-up, load, drain, check) measured.
type passResult struct {
	setupS      []float64
	window      float64 // seconds
	delivered   int64   // records delivered in the window
	p0, p1      procSnap
	snaps       []procSnap // at the window opening and each second after
	dels        []int64    // delivered count at each snap
	heapPeak    uint64
	lat, subLat summary
	notice      summary
	lag         summary
	layers      map[string]float64
	issued      int64
	lost        int64  // issued but not delivered to the consumer
	subDropped  uint64 // records the subscribers' loss markers reported
	subMissing  int64  // records a subscriber's filter passed that it did not receive
	orderBreaks int    // subscriber records delivered out of global emission order
	problems    []string
	captured    []record.Record
	tracer      *tracer
	wl          workload
}

// The rate metrics are medians over the window's one-second slices, so a
// single stalled second on a shared machine does not move the result.
func (p *passResult) deliveredRPS() float64 {
	return p.perSecond(func(d float64, a, b procSnap) float64 { return d / b.wall.Sub(a.wall).Seconds() })
}

func (p *passResult) cpuNsPerRec() float64 {
	return p.perSecond(func(d float64, a, b procSnap) float64 {
		return float64((b.userNs-a.userNs)+(b.sysNs-a.sysNs)) / d
	})
}

func (p *passResult) allocsPerRec() float64 {
	return p.perSecond(func(d float64, a, b procSnap) float64 { return float64(b.allocs-a.allocs) / d })
}

func (p *passResult) perSecond(f func(delivered float64, a, b procSnap) float64) float64 {
	xs := make([]float64, 0, len(p.snaps)-1)
	for i := 1; i < len(p.snaps); i++ {
		xs = append(xs, f(float64(p.dels[i]-p.dels[i-1]), p.snaps[i-1], p.snaps[i]))
	}
	return median(xs)
}

// secSummary reduces per-second latency samples to the medians of the
// per-second p50 and p99; N is the total sample count.
func secSummary(secs [][]float64) summary {
	var p50, p99 []float64
	n := 0
	for _, xs := range secs {
		if len(xs) == 0 {
			continue
		}
		s := summarize(xs)
		n += s.N
		p50 = append(p50, s.P50)
		p99 = append(p99, s.P99)
	}
	if n == 0 {
		return summary{}
	}
	return summary{N: n, P50: median(p50), P99: median(p99)}
}

// second maps a delivery instant to its one-second slice of the window.
func (rg *rig) second(now int64) int {
	sec := int((now - rg.windowAt.Load()) / int64(time.Second))
	return max(0, min(sec, len(rg.lat)-1))
}

// loadStats is what a workload's load generator measured itself.
type loadStats struct {
	notice []float64 // ns per record, one sample per timed chunk in the window
	lag    []float64 // generator lateness samples, µs
}

// runPass runs one full instance of the workload.
func runPass(o options, newW func(options) workload, traced bool) (*passResult, error) {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	runSpan := tr.id()
	runStart := tr.now()
	res := &passResult{tracer: tr}

	var rg *rig
	var wl workload
	for i := 0; i < setupRuns; i++ {
		wl = newW(o)
		setupSpan := tr.id()
		rg = &rig{tr: tr, span: setupSpan, capture: traced}
		rg.sched = wl.sched
		spanStart := tr.now()
		t0 := time.Now()
		err := wl.start(rg)
		if err == nil {
			err = rg.awaitProbes()
		}
		if err != nil {
			rg.close()
			return nil, err
		}
		res.setupS = append(res.setupS, time.Since(t0).Seconds())
		tr.record(setupSpan, runSpan, 0, "setup", spanStart, wl.sources())
		if i < setupRuns-1 {
			rg.close()
		}
	}

	loadSpan := tr.id()
	loadStart := tr.now()
	rg.span = loadSpan
	rg.lat = make([][]float64, o.seconds)
	for _, s := range rg.subs {
		s.lat = make([][]float64, o.seconds)
	}
	rg.startReaders(loadSpan)
	heap := newHeapPeak()
	pollStop := make(chan struct{})
	pollDone := make(chan struct{})
	go func() {
		defer close(pollDone)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for i := 0; ; i++ {
			select {
			case <-pollStop:
				return
			case <-tick.C:
			}
			if !rg.window.Load() {
				continue
			}
			heap.observe()
			if i%5 == 0 {
				start := tr.now()
				wl.poll(rg)
				tr.end(loadSpan, 0, "stats.poll", start, 0)
			}
		}
	}()

	stop := make(chan struct{})
	driveDone := make(chan struct{})
	go func() {
		defer close(driveDone)
		wl.drive(rg, stop)
	}()
	time.Sleep(warmup)
	res.dels = append(res.dels, rg.chk.delivered.Load())
	res.snaps = append(res.snaps, readProc())
	opened := res.snaps[0].wall
	rg.windowAt.Store(opened.UnixNano())
	rg.window.Store(true)
	for i := 1; i <= o.seconds; i++ {
		time.Sleep(time.Until(opened.Add(time.Duration(i) * time.Second)))
		res.snaps = append(res.snaps, readProc())
		res.dels = append(res.dels, rg.chk.delivered.Load())
	}
	rg.window.Store(false)
	res.p0, res.p1 = res.snaps[0], res.snaps[o.seconds]
	res.delivered = res.dels[o.seconds] - res.dels[0]
	res.window = res.p1.wall.Sub(res.p0.wall).Seconds()
	close(stop)
	<-driveDone
	close(pollStop)
	<-pollDone
	res.heapPeak = heap.max.Load()
	tr.record(loadSpan, runSpan, 0, "load", loadStart, int(res.delivered))

	drainSpan := tr.id()
	drainStart := tr.now()
	wl.flush(rg)
	tr.end(drainSpan, 0, "exs.flush", drainStart, 0)
	var issued int64
	for _, n := range wl.issued() {
		issued += n
	}
	deadline := time.Now().Add(drainTimeout)
	for rg.chk.delivered.Load() < issued && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	layers, acct := wl.finish(rg)
	rg.close()
	<-rg.consDone
	for _, s := range rg.subs {
		<-s.done
	}
	tr.record(drainSpan, runSpan, 0, "drain", drainStart, 0)
	tr.record(runSpan, 0, 0, "run", runStart, 0)

	acct.lapped += rg.cons.Lost
	res.layers = layers
	res.issued = issued
	res.lost = issued - rg.chk.delivered.Load()
	res.problems = rg.chk.finish(acct)
	subLat := make([][]float64, o.seconds)
	var subDelivered int
	for i, s := range rg.subs {
		subDelivered += len(s.keys)
		res.subDropped += s.dropped
		res.subMissing += int64(len(rg.chk.expect[i]) - len(s.keys))
		msg, breaks := compareSub(s.name, rg.chk.expect[i], s.keys, s.dropped)
		if msg != "" {
			res.problems = append(res.problems, msg)
		}
		res.orderBreaks += breaks
		for j := range subLat {
			subLat[j] = append(subLat[j], s.lat[j]...)
		}
	}
	res.layers["subscribe.delivered"] = float64(subDelivered)
	res.lat = secSummary(rg.lat)
	res.subLat = secSummary(subLat)
	ls := wl.loadStats()
	res.notice = summarize(ls.notice)
	res.lag = summarize(ls.lag)
	res.captured = rg.captured
	res.wl = wl
	return res, nil
}

// waitGroupFunc runs f on n goroutines and waits for all of them.
func waitGroupFunc(n int, f func(i int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f(i)
		}(i)
	}
	wg.Wait()
}
