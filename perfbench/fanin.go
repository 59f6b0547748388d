package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"brisk"
	"brisk/internal/ism"
	"brisk/internal/ols"
	"brisk/internal/record"
	"brisk/internal/relay"
	"brisk/internal/wire"
)

// fanin is the closed loop with flow control through the relay tier: one
// generator connection sends pre-generated RELAY_DATA frames, each
// interleaving a few hundred origin sources, to an internal/relay relay,
// which sorts and forwards one uplink session to the root manager, which
// merges again into the consumer. A seeded share of the origins runs late
// by up to faninLate; both sorters hold a fixed T above it. The generator
// stamps records from its send clock, so the sorters really hold them,
// and honours acks and credit as an external sensor does; relay and root
// bound their sorters, so the ack gate sets the rate.
type fanin struct {
	seed int64

	lagUs     []int64    // per origin: how far its stamps run behind
	templates [][]byte   // node-prefixed RELAY_DATA payloads
	origins   [][]uint16 // per template: the origin of each entry

	root *brisk.Manager
	rl   *relay.Relay
	wc   *wire.Conn
	// Sender-owned: per origin the next seq (so the records issued), and
	// the records sent in all.
	next []int64
	sent int64

	// Credit state shared by the sender and the ack reader.
	mu       sync.Mutex
	cond     *sync.Cond
	window   int64 // 0: unlimited
	inflight int64
	unacked  []frameCount
	closed   bool

	frames   uint64 // frame sequence numbers used
	captured [][]byte
	chunks   []float64 // send ns per record, per frame in the window
	lag      []float64 // µs from stamping a frame to its send returning

	readerDone chan struct{}
	g          gauges
}

type frameCount struct {
	seq   uint64
	count int64
}

const (
	faninOrigins = 384
	faninEntries = 512 // records per frame
	faninFrames  = 64  // distinct templates
	// faninLate is L, the largest lateness of a late origin, in µs;
	// faninT is the relay's and the root's fixed time frame. T covers L
	// plus the transit to the relay's sorter, which the credit window
	// lets grow to several milliseconds at saturation; with a smaller T
	// every record would reach the sorter already older than T and pass
	// straight through, out of order.
	faninLate = 2_000
	faninT    = 20_000
	// faninLateShare is the share of origins that run late.
	faninLateShare = 0.1
	// faninBuffered bounds each sorter; its ack gate closes at ¾ of it.
	faninBuffered = 1 << 15
	// faninCapture is how many frames the traced run keeps for replay.
	faninCapture = captureRecords / faninEntries
	// entryBytes is one node-prefixed six-int entry: 4-byte origin, 8-byte
	// header, 8-byte timestamp, six int32 fields.
	entryBytes = 4 + record.HeaderSize + 8 + 6*4
	offTS      = 4 + record.HeaderSize
	offSeq     = offTS + 8 + 4
)

func newFanin(o options) workload {
	f := &fanin{seed: o.seed, next: make([]int64, faninOrigins)}
	rng := rand.New(rand.NewSource(o.seed))
	f.lagUs = make([]int64, faninOrigins)
	for i := range f.lagUs {
		if rng.Float64() < faninLateShare {
			f.lagUs[i] = faninLate/4 + rng.Int63n(faninLate*3/4+1)
		}
	}
	for t := 0; t < faninFrames; t++ {
		buf := make([]byte, 0, faninEntries*entryBytes)
		orig := make([]uint16, faninEntries)
		for i := range orig {
			o := uint16(rng.Intn(faninOrigins))
			orig[i] = o
			ev := evData
			if rng.Intn(32) == 0 {
				ev = evSelected
			}
			buf = appendEntry(buf, ev, int32(o), 0, 0, rng.Uint64())
		}
		f.templates = append(f.templates, buf)
		f.origins = append(f.origins, orig)
	}
	f.cond = sync.NewCond(&f.mu)
	return f
}

// appendEntry encodes one node-prefixed six-int record. Origin o travels
// as node id o+1 and as the record's source field.
func appendEntry(buf []byte, ev uint8, o, seq int32, ts int64, payload uint64) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(o+1))
	rec := record.New(ev, record.TSVal(ts), record.I32Val(o), record.I32Val(seq),
		record.I32Val(int32(payload)), record.I32Val(int32(payload>>32)),
		record.I32Val(int32(payload>>16)), record.I32Val(int32(payload>>48)))
	out, err := rec.Append(buf)
	if err != nil || len(out)-len(buf) != entryBytes-4 {
		panic("fanin: six-int record encoding changed size") // a bug, not an input
	}
	return out
}

func (f *fanin) sources() int { return faninOrigins }

func (f *fanin) start(rg *rig) error {
	sorter := brisk.SorterOptions{InitialT: faninT, Policy: brisk.TimeFrameFixed, MaxBuffered: faninBuffered}
	root, err := brisk.StartManager(brisk.ManagerOptions{
		Sorter:        sorter,
		BufferRecords: 1 << 18,
		Subscribe:     readSide(),
		Logf:          quiet,
	})
	if err != nil {
		return fmt.Errorf("fanin: root: %w", err)
	}
	f.root = root
	rg.onClose(func() { _ = root.Close() })
	rg.cons = root.Consume()
	rg.sampleMask = 7
	rg.chk = newChecker(faninOrigins, []subFilter{func(r *record.Record) bool { return r.Event == evSelected }})
	if err := rg.addSub(root.Subscriptions(), "selective", selectiveFilter); err != nil {
		return err
	}
	rl, err := relay.New(relay.Config{
		Addr:   "127.0.0.1:0",
		Parent: root.Addr(),
		Name:   "fanin-relay",
		ISM: ism.Config{
			Sorter: ols.Config{InitialT: faninT, Grow: ols.GrowFixed, MaxBuffered: faninBuffered},
			// A small credit grant keeps the generator's unacknowledged
			// frames, and so their transit to the sorter, short next to T.
			MaxCreditWindow: 2 * faninEntries,
		},
		Logf: quiet,
	})
	if err != nil {
		return fmt.Errorf("fanin: relay: %w", err)
	}
	f.rl = rl
	rg.onClose(func() { _ = rl.Close() })

	raw, err := net.Dial("tcp", rl.Addr())
	if err != nil {
		return fmt.Errorf("fanin: dial relay: %w", err)
	}
	f.wc = wire.NewConn(raw)
	if err := f.wc.Send(&wire.Hello{Version: wire.ProtocolVersion, Name: "fanin-gen", Session: uint64(f.seed)<<1 | 1}); err != nil {
		raw.Close()
		return fmt.Errorf("fanin: hello: %w", err)
	}
	msg, err := f.wc.Recv()
	ack, ok := msg.(*wire.HelloAck)
	if err != nil || !ok {
		raw.Close()
		return fmt.Errorf("fanin: hello ack: %v %v", err, msg)
	}
	f.window = int64(ack.Window)
	f.readerDone = make(chan struct{})
	go f.readAcks()
	rg.onClose(func() {
		f.mu.Lock()
		f.closed = true
		f.cond.Broadcast()
		f.mu.Unlock()
		_ = f.wc.Send(&wire.Bye{})
		raw.Close()
		<-f.readerDone
	})

	// The probe frame: seq 0 of every origin, stamped now.
	now := time.Now().UnixMicro()
	var probe []byte
	for o := 0; o < faninOrigins; o++ {
		probe = appendEntry(probe, evProbe, int32(o), 0, now, 0)
		f.next[o] = 1
	}
	f.sent = faninOrigins
	seq, err := f.acquire(faninOrigins)
	if err != nil {
		return err
	}
	return f.wc.Send(&wire.RelayBatch{Seq: seq, Count: faninOrigins, Payload: probe})
}

// readAcks is the generator's control loop: it applies acks and credit
// and answers the relay's heartbeats and clock probes.
func (f *fanin) readAcks() {
	defer close(f.readerDone)
	for {
		msg, err := f.wc.Recv()
		if err != nil {
			f.mu.Lock()
			f.closed = true
			f.cond.Broadcast()
			f.mu.Unlock()
			return
		}
		switch m := msg.(type) {
		case *wire.DataAck:
			f.mu.Lock()
			for len(f.unacked) > 0 && f.unacked[0].seq <= m.Seq {
				f.inflight -= f.unacked[0].count
				f.unacked = f.unacked[1:]
			}
			f.window = int64(m.Window)
			f.cond.Broadcast()
			f.mu.Unlock()
		case *wire.Ping:
			_ = f.wc.Send(&wire.Pong{Seq: m.Seq})
		case *wire.Probe:
			_ = f.wc.Send(&wire.ProbeReply{Seq: m.Seq, MasterSend: m.MasterSend, SlaveTime: time.Now().UnixMicro()})
		}
	}
}

var errClosed = errors.New("fanin: generator connection closed")

// acquire waits for credit as an external sensor does (a batch goes when
// nothing is in flight or it fits the window) and reserves the next
// frame sequence number for count records.
func (f *fanin) acquire(count int64) (uint64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for !f.closed && f.window > 0 && f.inflight > 0 && f.inflight+count > f.window {
		f.cond.Wait()
	}
	if f.closed {
		return 0, errClosed
	}
	f.frames++
	seq := f.frames
	f.inflight += count
	f.unacked = append(f.unacked, frameCount{seq, count})
	return seq, nil
}

func (f *fanin) drive(rg *rig, stop <-chan struct{}) {
	buf := make([]byte, faninEntries*entryBytes)
	prev := time.Now().UnixMicro()
	req := uint64(0)
	for k := 0; ; k++ {
		select {
		case <-stop:
			return
		default:
		}
		// Credit first, then the stamp: a record is created when its
		// frame can go.
		seq, err := f.acquire(faninEntries)
		if err != nil {
			return
		}
		t := k % faninFrames
		copy(buf, f.templates[t])
		stamped := time.Now()
		now := stamped.UnixMicro()
		span := now - prev
		for i, o := range f.origins[t] {
			e := buf[i*entryBytes:]
			ts := prev + span*int64(i+1)/faninEntries - f.lagUs[o]
			binary.BigEndian.PutUint64(e[offTS:], uint64(ts))
			binary.BigEndian.PutUint32(e[offSeq:], uint32(f.next[o]))
			f.next[o]++
		}
		prev = now
		f.sent += faninEntries
		open := rg.window.Load()
		if open && rg.capture && len(f.captured) < faninCapture {
			f.captured = append(f.captured, append([]byte(nil), buf...))
		}
		req++
		spanStart := rg.tr.now()
		t0 := time.Now()
		err = f.wc.Send(&wire.RelayBatch{Seq: seq, Count: faninEntries, Payload: buf})
		sent := time.Now()
		rg.tr.end(rg.span, req, "wire.send", spanStart, faninEntries)
		if err != nil {
			return
		}
		if open {
			f.chunks = append(f.chunks, float64(sent.Sub(t0).Nanoseconds())/faninEntries)
			f.lag = append(f.lag, float64(sent.Sub(stamped).Nanoseconds())/1e3)
		}
	}
}

func (f *fanin) flush(rg *rig) {}

// issued is read once the sender has stopped.
func (f *fanin) issued() []int64 { return f.next }

func (f *fanin) poll(rg *rig) {
	rs := f.rl.Stats()
	st := f.root.Stats()
	f.g.mu.Lock()
	defer f.g.mu.Unlock()
	f.g.pollManager(rs.ISM)
	f.g.pollManager(st)
	f.g.relayBacklogMax = max(f.g.relayBacklogMax, rs.BacklogRecords)
	f.g.window(time.Now(), rs.ISM.Batches, st.SyncProbes)
}

func (f *fanin) finish(rg *rig) (map[string]float64, accounting) {
	m := map[string]float64{}
	rs := f.rl.Stats()
	st := f.root.Stats()
	managerLayers(m, &f.g, rs.ISM, st)
	m["relay.forwarded"] = float64(rs.Forwarded)
	if rs.Batches > 0 {
		m["relay.recs_per_uplink_batch"] = float64(rs.Shipped) / float64(rs.Batches)
	}
	f.g.mu.Lock()
	m["relay.backlog_max"] = float64(f.g.relayBacklogMax)
	f.g.mu.Unlock()
	m["relay.loss_markers"] = float64(rs.LossMarkers)
	m["wire.bytes_per_rec"] = float64(f.wc.BytesOut()) / float64(f.sent)
	return m, accounting{
		issued:      f.issued(),
		sorterDrops: rs.ISM.Sorter.DroppedFull + st.Sorter.DroppedFull + rs.Dropped,
		inversions:  rs.ISM.Sorter.Inversions + st.Sorter.Inversions,
	}
}

// sched is the instant a record was created: its stamp plus its origin's
// lateness.
func (f *fanin) sched(src, seq int32, r *record.Record) int64 {
	return (r.TS + f.lagUs[src]) * 1000
}

func (f *fanin) loadStats() loadStats {
	return loadStats{notice: f.chunks, lag: f.lag}
}

func (f *fanin) replayInput(captured []record.Record, layers map[string]float64) (replayInput, error) {
	return replayInput{
		payloads:     f.captured,
		nodePrefixed: true,
		sorted:       captured,
		sorter:       ols.Config{InitialT: faninT, Grow: ols.GrowFixed},
		shards:       1,
		// Each record crosses two managers (relay and root) and two wire
		// hops; only the root serves subscribers.
		passes: layerPasses{decode: 2, ols: 2, cre: 2, shm: 2, subscribe: 1, wire: 2},
	}, nil
}
