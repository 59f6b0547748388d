package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"brisk"
	"brisk/internal/record"
	"brisk/internal/vclock"
)

// paced is the open loop at a fixed offered rate: two nodes on seeded,
// offset and drifting virtual clocks with model-based clock sync on, a
// seeded share of cross-node reason/consequence pairs for the causal
// matcher, and the subscription engine serving a match-all and a
// selective subscriber beside the consumer. Notices are issued on a
// seeded Poisson schedule; latency is timed from each notice's scheduled
// time, so a stalled generator or pipeline shows in every later record.
type paced struct {
	seed   int64
	events [pacedNodes][]pacedEvent // per node, in schedule order
	// schedNs[src][seq] is the scheduled offset of (src, seq) from the
	// start of the load, in ns.
	schedNs [pacedSources][]int64
	t0      atomic.Int64 // UnixNano the load started
	cutoff  atomic.Int64 // schedule offset (ns) the load stops at; 0 while running

	mgr    *brisk.Manager
	nodes  []*brisk.Node
	clocks []*vclock.Drift
	main   []*brisk.Sensor // per node: the node's data and reason stream
	conseq []*brisk.Sensor // per node: the consequences it issues

	next    [pacedSources]atomic.Int64 // records issued per source
	refused atomic.Uint64
	tries   atomic.Uint64

	mu     sync.Mutex
	chunks []float64 // ns per notice, per timed burst in the window
	lag    []float64 // µs the generator issued each notice after its schedule

	g gauges
}

const (
	pacedNodes = 2
	// Sources 0 and 1 are the nodes' data streams (reasons included);
	// 2 and 3 carry the consequences issued on node 0 and node 1.
	pacedSources = 4
	// pacedRate is the offered load in records per second, well below
	// flood's delivered rate on a 2-vCPU box.
	pacedRate = 50_000
	// pacedPairShare is the share of data notices that are a reason with
	// a consequence on the other node.
	pacedPairShare = 0.01
	// pacedSelectShare is the share of data notices the selective
	// subscriber's filter matches.
	pacedSelectShare = 8
	// pacedHorizon is how much schedule is generated beyond warm-up and
	// the measured window.
	pacedHorizon = 3 * time.Second
)

// pacedEvent is one scheduled notice.
type pacedEvent struct {
	at   int64 // ns after the load starts
	id   uint64
	seq  int32
	src  int8
	kind uint8 // evData, evSelected, evReason or evConseq
}

func newPaced(o options) workload {
	p := &paced{seed: o.seed}
	rng := rand.New(rand.NewSource(o.seed))
	horizon := (warmup + time.Duration(o.seconds)*time.Second + pacedHorizon).Nanoseconds()
	perNode := float64(pacedRate) / pacedNodes
	var nextID uint64
	for n := 0; n < pacedNodes; n++ {
		seq := int32(1)
		for at := int64(0); ; {
			at += int64(rng.ExpFloat64() / perNode * 1e9)
			if at > horizon {
				break
			}
			ev := pacedEvent{at: at, src: int8(n), seq: seq, kind: evData}
			seq++
			switch {
			case rng.Float64() < pacedPairShare:
				nextID++
				ev.kind, ev.id = evReason, nextID
				other := 1 - n
				p.events[other] = append(p.events[other], pacedEvent{
					at:   at + int64(50_000+rng.Intn(250_000)),
					id:   nextID,
					src:  int8(2 + other),
					kind: evConseq,
				})
			case rng.Intn(pacedSelectShare) == 0:
				ev.kind = evSelected
			}
			p.events[n] = append(p.events[n], ev)
		}
	}
	for n := range p.events {
		evs := p.events[n]
		sort.SliceStable(evs, func(i, j int) bool { return evs[i].at < evs[j].at })
		cseq := int32(1)
		for i := range evs {
			if evs[i].kind == evConseq {
				evs[i].seq = cseq
				cseq++
			}
		}
	}
	for s := range p.schedNs {
		p.schedNs[s] = []int64{0}
	}
	for n := range p.events {
		for _, ev := range p.events[n] {
			p.schedNs[ev.src] = append(p.schedNs[ev.src], ev.at)
		}
	}
	return p
}

func (p *paced) sources() int { return pacedSources }

func (p *paced) start(rg *rig) error {
	mgr, err := brisk.StartManager(brisk.ManagerOptions{
		// T never drops below the lateness the nodes' flush interval
		// alone produces (a partial batch waits up to 5 ms), so it grows
		// only on real apparent lateness, such as residual clock skew or
		// a stalled node, and decays back within about a second.
		Sorter: brisk.SorterOptions{InitialT: 20_000, MinT: 20_000, HalfLife: 300_000},
		Sync: brisk.SyncOptions{
			Period:           50 * time.Millisecond,
			UncertaintyBound: 50,
		},
		Subscribe: readSide(),
		Logf:      quiet,
	})
	if err != nil {
		return fmt.Errorf("paced: manager: %w", err)
	}
	p.mgr = mgr
	rg.onClose(func() { _ = mgr.Close() })
	rg.cons = mgr.Consume()
	rg.chk = newChecker(pacedSources, []subFilter{
		func(*record.Record) bool { return true },
		func(r *record.Record) bool { return r.Event == evSelected },
	})
	if err := rg.addSub(mgr.Subscriptions(), "all", ""); err != nil {
		return err
	}
	if err := rg.addSub(mgr.Subscriptions(), "selective", selectiveFilter); err != nil {
		return err
	}
	// Seeded clocks: one node ahead of true time and gaining, the other
	// behind and losing, with seeded jitter on both magnitudes.
	rng := rand.New(rand.NewSource(p.seed ^ 0x5eed))
	ahead := rng.Intn(pacedNodes)
	for i := 0; i < pacedNodes; i++ {
		sign := int64(-1)
		if i == ahead {
			sign = 1
		}
		clk := vclock.NewDrift(vclock.System{}, sign*int64(200+rng.Intn(50)), float64(sign)*(20+5*rng.Float64()))
		n, err := brisk.ConnectNode(brisk.NodeOptions{
			ManagerAddr: mgr.Addr(),
			Name:        fmt.Sprintf("paced-%d", i),
			RawClock:    clk,
			Logf:        quiet,
		})
		if err != nil {
			return fmt.Errorf("paced: node %d: %w", i, err)
		}
		rg.onClose(func() { _ = n.Close() })
		p.nodes = append(p.nodes, n)
		p.clocks = append(p.clocks, clk)
		p.main = append(p.main, n.NewSensor("app"))
		p.conseq = append(p.conseq, n.NewSensor("conseq"))
	}
	for i := 0; i < pacedNodes; i++ {
		p.issue(pacedEvent{src: int8(i), kind: evProbe})
		p.issue(pacedEvent{src: int8(2 + i), kind: evProbe})
		p.nodes[i].Flush()
	}
	for s := range p.next {
		p.next[s].Store(1)
	}
	return nil
}

// issue writes one scheduled notice, retrying a refusal after a pause.
func (p *paced) issue(ev pacedEvent) {
	s := p.main[ev.src%pacedNodes]
	if ev.src >= pacedNodes {
		s = p.conseq[ev.src-pacedNodes]
	}
	src := int32(ev.src)
	for {
		var ok bool
		switch ev.kind {
		case evReason:
			ok = s.Notice(evReason, brisk.Reason(ev.id), brisk.I32(src), brisk.I32(ev.seq))
		case evConseq:
			ok = s.Notice(evConseq, brisk.Conseq(ev.id), brisk.I32(src), brisk.I32(ev.seq))
		default:
			h := mix(uint64(p.seed) + uint64(src)<<32 + uint64(ev.seq))
			ok = s.Notice6i(ev.kind, src, ev.seq, int32(h), int32(h>>32), int32(h>>16), int32(h>>48))
		}
		p.tries.Add(1)
		if ok {
			return
		}
		p.refused.Add(1)
		time.Sleep(refusalBackoff)
	}
}

func (p *paced) drive(rg *rig, stop <-chan struct{}) {
	start := time.Now().UnixNano()
	p.t0.Store(start)
	// Both nodes stop at one point of the schedule, not at one instant:
	// a node running late still issues everything due before the
	// cutoff, so no consequence is issued without its earlier reason.
	done := make(chan struct{})
	go func() {
		select {
		case <-stop:
			p.cutoff.Store(time.Now().UnixNano() - start)
		case <-done:
		}
	}()
	waitGroupFunc(pacedNodes, func(i int) { p.produce(rg, i) })
	close(done)
}

// produce issues node i's schedule up to the cutoff: it sleeps until the
// next notice is due, then issues every notice that is due as one timed
// burst. Bursts hold a few notices each, so one notice_ns sample sums
// the bursts of about 1 ms of schedule.
func (p *paced) produce(rg *rig, i int) {
	start := p.t0.Load()
	evs := p.events[i]
	var chunks, lag []float64
	defer func() {
		p.mu.Lock()
		p.chunks = append(p.chunks, chunks...)
		p.lag = append(p.lag, lag...)
		p.mu.Unlock()
	}()
	due := func(k int) bool {
		c := p.cutoff.Load()
		return k < len(evs) && (c == 0 || evs[k].at < c)
	}
	req := uint64(0)
	var sumAt, sumNs, sumN int64 // the notice_ns sample being summed
	for k := 0; due(k); {
		if wait := start + evs[k].at - time.Now().UnixNano(); wait > 0 {
			time.Sleep(time.Duration(wait))
		}
		req++
		spanStart := rg.tr.now()
		t0 := time.Now()
		now := t0.UnixNano()
		open := rg.window.Load()
		n := 0
		for ; due(k) && start+evs[k].at <= now; k++ {
			p.issue(evs[k])
			p.next[evs[k].src].Store(int64(evs[k].seq) + 1)
			if open {
				lag = append(lag, float64(now-start-evs[k].at)/1e3)
			}
			n++
		}
		d := time.Since(t0).Nanoseconds()
		rg.tr.end(rg.span, req, "sensor.notice", spanStart, n)
		if !open {
			continue
		}
		if sumN == 0 {
			sumAt = now
		}
		sumNs += d
		sumN += int64(n)
		if now-sumAt >= chunkNs {
			chunks = append(chunks, float64(sumNs)/float64(sumN))
			sumNs, sumN = 0, 0
		}
	}
}

func (p *paced) flush(rg *rig) {
	for _, n := range p.nodes {
		n.Flush()
	}
}

func (p *paced) issued() []int64 {
	out := make([]int64, pacedSources)
	for s := range out {
		out[s] = p.next[s].Load()
	}
	return out
}

func (p *paced) poll(rg *rig) {
	st := p.mgr.Stats()
	var skew [pacedNodes]int64
	for i, n := range p.nodes {
		skew[i] = p.clocks[i].SkewAgainstRef() + n.Correction()
	}
	p.g.mu.Lock()
	defer p.g.mu.Unlock()
	p.g.pollManager(st)
	p.g.window(time.Now(), st.Batches, st.SyncProbes)
	p.g.skewSamples = append(p.g.skewSamples, math.Abs(float64(skew[0]-skew[1])))
}

func (p *paced) finish(rg *rig) (map[string]float64, accounting) {
	m := map[string]float64{}
	st := p.mgr.Stats()
	managerLayers(m, &p.g, st)
	ringDropped := nodeLayers(m, p.nodes)
	refused := p.refused.Load()
	if tries := p.tries.Load(); tries > 0 {
		m["sensor.ring_full_ratio"] = float64(refused) / float64(tries)
	}
	m["shm.ring_dropped"] = float64(int64(ringDropped) - int64(refused))
	if st.Received > 0 {
		m["wire.bytes_per_rec"] = float64(st.BytesIn) / float64(st.Received)
	}
	return m, accounting{
		issued:      p.issued(),
		ringRetried: refused,
		sorterDrops: st.Sorter.DroppedFull,
		inversions:  st.Sorter.Inversions,
	}
}

func (p *paced) sched(src, seq int32, r *record.Record) int64 {
	if seq == 0 || int(seq) >= len(p.schedNs[src]) {
		return r.TS * 1000 // set-up probe: no schedule
	}
	return p.t0.Load() + p.schedNs[src][seq]
}

func (p *paced) loadStats() loadStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return loadStats{notice: p.chunks, lag: p.lag}
}

func (p *paced) replayInput(captured []record.Record, layers map[string]float64) (replayInput, error) {
	payloads, err := batchRecords(captured, int(layers["exs.recs_per_batch"]+0.5))
	return replayInput{
		payloads: payloads,
		sorted:   captured,
		shards:   1,
		passes:   layerPasses{decode: 1, ols: 1, cre: 1, shm: 1, subscribe: 1, wire: 1},
	}, err
}
