package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"brisk"
	"brisk/internal/record"
)

// flood is the closed loop at saturation: two nodes, one producer
// goroutine each, issuing the paper's 40-byte six-int notice as fast as
// the sensor ring accepts it. A refused notice is retried and counted as
// a refusal, never as a drop. Each producer keeps at most floodWindow
// records between notice and delivery at the consumer: nothing else
// pushes back on a producer (the manager never blocks on its readers),
// so without the window the consumer falls behind and is lapped.
// Timestamps come from the live clock, so latency is measured from each
// record's own stamp.
type flood struct {
	seed uint64

	mgr   *brisk.Manager
	nodes []*brisk.Node
	sens  []*brisk.Sensor

	next     []atomic.Int64 // next seq per source = records issued
	attempts []atomic.Uint64
	refused  []atomic.Uint64

	mu     sync.Mutex
	chunks []float64 // ns per notice, timed chunks inside the window

	g gauges
}

const floodNodes = 2

// refusalBackoff is how long a producer waits before retrying a notice
// the full ring refused, leaving the CPU to the stages draining it.
const refusalBackoff = 50 * time.Microsecond

// floodWindow is the most records one producer has issued but not yet
// seen delivered.
const floodWindow = 1 << 14

func newFlood(o options) workload {
	return &flood{
		seed:     uint64(o.seed),
		next:     make([]atomic.Int64, floodNodes),
		attempts: make([]atomic.Uint64, floodNodes),
		refused:  make([]atomic.Uint64, floodNodes),
	}
}

func (f *flood) sources() int { return floodNodes }

// class picks a record's event class: a seeded 1-in-32 share is selected
// for the selective subscriber.
func (f *flood) class(src, seq int32) uint8 {
	if mix(f.seed^uint64(src)<<40^uint64(seq))%32 == 0 {
		return evSelected
	}
	return evData
}

func (f *flood) start(rg *rig) error {
	mgr, err := brisk.StartManager(brisk.ManagerOptions{
		BufferRecords: 1 << 18,
		// A fixed time frame: under saturation one node's batches can
		// trail the other's by tens of milliseconds, and an adaptive T
		// ratchets up to that once and then holds every record for it,
		// turning a scheduling accident into the run's throughput.
		Sorter:    brisk.SorterOptions{Policy: brisk.TimeFrameFixed},
		Subscribe: readSide(),
		Logf:      quiet,
	})
	if err != nil {
		return fmt.Errorf("flood: manager: %w", err)
	}
	f.mgr = mgr
	rg.onClose(func() { _ = mgr.Close() })
	rg.cons = mgr.Consume()
	rg.sampleMask = 15
	rg.chk = newChecker(floodNodes, []subFilter{func(r *record.Record) bool { return r.Event == evSelected }})
	if err := rg.addSub(mgr.Subscriptions(), "selective", selectiveFilter); err != nil {
		return err
	}
	for i := 0; i < floodNodes; i++ {
		n, err := brisk.ConnectNode(brisk.NodeOptions{
			ManagerAddr: mgr.Addr(),
			Name:        fmt.Sprintf("flood-%d", i),
			Logf:        quiet,
		})
		if err != nil {
			return fmt.Errorf("flood: node %d: %w", i, err)
		}
		f.nodes = append(f.nodes, n)
		rg.onClose(func() { _ = n.Close() })
		f.sens = append(f.sens, n.NewSensor("app"))
	}
	for i, s := range f.sens {
		for !s.Notice6i(evProbe, int32(i), 0, 0, 0, 0, 0) {
			runtime.Gosched()
		}
		f.next[i].Store(1)
		f.nodes[i].Flush()
	}
	return nil
}

func (f *flood) drive(rg *rig, stop <-chan struct{}) {
	waitGroupFunc(floodNodes, func(i int) { f.produce(rg, i, stop) })
}

// produce is one node's application goroutine. Notices are timed per
// chunk of about 1 ms; a chunk ends early at a refusal, and the retry
// runs outside the timed chunk.
func (f *flood) produce(rg *rig, i int, stop <-chan struct{}) {
	s := f.sens[i]
	src := int32(i)
	seq := int32(f.next[i].Load())
	var attempts, refused uint64
	req := uint64(0)
	for {
		select {
		case <-stop:
			f.next[i].Store(int64(seq))
			f.attempts[i].Add(attempts)
			f.refused[i].Add(refused)
			return
		default:
		}
		if int64(seq)-rg.chk.count[i].Load() >= floodWindow {
			time.Sleep(refusalBackoff)
			continue
		}
		req++
		spanStart := rg.tr.now()
		t0 := time.Now()
		n := 0
		full := false
		for {
			h := mix(f.seed + uint64(seq))
			ok := s.Notice6i(f.class(src, seq), src, seq, int32(h), int32(h>>32), int32(h>>16), int32(h>>48))
			attempts++
			if !ok {
				refused++
				full = true
				break
			}
			seq++
			n++
			if n&255 == 0 && (time.Since(t0).Nanoseconds() >= chunkNs ||
				int64(seq)-rg.chk.count[i].Load() >= floodWindow) {
				break
			}
		}
		calls := n
		if full {
			calls++
		}
		d := time.Since(t0).Nanoseconds()
		rg.tr.end(rg.span, req, "sensor.notice", spanStart, calls)
		if rg.window.Load() && calls >= 64 {
			f.mu.Lock()
			f.chunks = append(f.chunks, float64(d)/float64(calls))
			f.mu.Unlock()
		}
		f.next[i].Store(int64(seq))
		if full {
			for {
				time.Sleep(refusalBackoff)
				h := mix(f.seed + uint64(seq))
				attempts++
				if s.Notice6i(f.class(src, seq), src, seq, int32(h), int32(h>>32), int32(h>>16), int32(h>>48)) {
					seq++
					break
				}
				refused++
			}
		}
	}
}

func (f *flood) flush(rg *rig) {
	for _, n := range f.nodes {
		n.Flush()
	}
}

func (f *flood) issued() []int64 {
	out := make([]int64, floodNodes)
	for i := range out {
		out[i] = f.next[i].Load()
	}
	return out
}

func (f *flood) poll(rg *rig) {
	st := f.mgr.Stats()
	f.g.mu.Lock()
	defer f.g.mu.Unlock()
	f.g.pollManager(st)
	f.g.window(time.Now(), st.Batches, st.SyncProbes)
}

func (f *flood) finish(rg *rig) (map[string]float64, accounting) {
	m := map[string]float64{}
	st := f.mgr.Stats()
	managerLayers(m, &f.g, st)
	ringDropped := nodeLayers(m, f.nodes)
	var attempts, refused uint64
	for i := range f.attempts {
		attempts += f.attempts[i].Load()
		refused += f.refused[i].Load()
	}
	if attempts > 0 {
		m["sensor.ring_full_ratio"] = float64(refused) / float64(attempts)
	}
	// The ring counts every refusal; the ones the producer retried were
	// not lost.
	m["shm.ring_dropped"] = float64(int64(ringDropped) - int64(refused))
	if st.Received > 0 {
		m["wire.bytes_per_rec"] = float64(st.BytesIn) / float64(st.Received)
	}
	return m, accounting{
		issued:      f.issued(),
		ringRetried: refused,
		sorterDrops: st.Sorter.DroppedFull,
		inversions:  st.Sorter.Inversions,
	}
}

func (f *flood) sched(src, seq int32, r *record.Record) int64 { return r.TS * 1000 }

func (f *flood) loadStats() loadStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return loadStats{notice: f.chunks}
}

func (f *flood) replayInput(captured []record.Record, layers map[string]float64) (replayInput, error) {
	payloads, err := batchRecords(captured, int(layers["exs.recs_per_batch"]+0.5))
	return replayInput{
		payloads: payloads,
		sorted:   captured,
		shards:   1,
		passes:   layerPasses{decode: 1, ols: 1, cre: 1, shm: 1, subscribe: 1, wire: 1},
	}, err
}
