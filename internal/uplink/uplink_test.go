package uplink

import (
	"context"
	mrand "math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"brisk/internal/record"
	"brisk/internal/wire"
)

// kinds are the two frame kinds the uplink ships. A RELAY_DATA entry is
// prefixed by its 4-byte origin node id; its tests mark at the head of a
// batch, DATA's at the tail, as the relay and the sensor do.
var kinds = []struct {
	name   string
	kind   wire.MsgType
	prefix int
}{
	{"data", wire.MsgData, 0},
	{"relay", wire.MsgRelayData, 4},
}

func quiet(string, ...any) {}

// testConfig returns a config for the given frame kind with fast test
// timings.
func testConfig(kind wire.MsgType, prefix int) Config {
	mark := func(dst, body []byte, n uint64, first, last int64) []byte {
		m := record.NewLossMarker(n, first, last)
		if prefix == 0 {
			dst, _ = m.Append(append(dst, body...))
			return dst
		}
		dst, _ = m.Append(append(dst, make([]byte, prefix)...))
		return append(dst, body...)
	}
	return Config{
		Kind:          kind,
		Tally:         func(p []byte) (uint64, int64, int64) { return Tally(p, prefix) },
		Mark:          mark,
		Name:          "t",
		ReconnectBase: 2 * time.Millisecond,
		ReconnectMax:  10 * time.Millisecond,
		Who:           "test",
		Peer:          "peer",
		Logf:          quiet,
	}
}

// offline returns an unconnected uplink in the reconnecting state.
func offline(kind wire.MsgType, prefix, queueBytes int) *Uplink {
	cfg := testConfig(kind, prefix)
	cfg.QueueBytes = queueBytes
	u := newUplink(context.Background(), cfg)
	u.state.Store(stateReconnecting)
	return u
}

func fixedRand(v float64) func() float64 { return func() float64 { return v } }

// TestBackoffDelaySchedule pins the exponential schedule and its cap. An
// injected source of 0.5 makes the ±20% jitter factor exactly 1, leaving
// the pure exponential, and the live schedule drawn through Backoff is
// that same, reproducible function of the attempt number.
func TestBackoffDelaySchedule(t *testing.T) {
	const base, max = 10 * time.Millisecond, 80 * time.Millisecond
	want := []time.Duration{base, 2 * base, 4 * base, max, max, max}
	for attempt, w := range want {
		if got := backoffDelay(attempt, base, max, fixedRand(0.5)); got != w {
			t.Errorf("attempt %d: delay = %v, want %v", attempt, got, w)
		}
	}
	cfg := testConfig(wire.MsgData, 0)
	cfg.ReconnectBase, cfg.ReconnectMax = base, max
	cfg.ReconnectRand = fixedRand(0.5)
	u := newUplink(context.Background(), cfg)
	for attempt, w := range want {
		if a, b := u.Backoff(attempt), u.Backoff(attempt); a != w || b != w {
			t.Errorf("attempt %d: Backoff = %v then %v, want %v both times", attempt, a, b, w)
		}
	}
}

// TestBackoffDelayJitterBounds verifies the ±20% band at the extremes of
// the random source and in between, and that a seeded schedule stays in
// its envelope (floor 1 ms, ceiling 1.2 × max) at every attempt.
func TestBackoffDelayJitterBounds(t *testing.T) {
	const base = 100 * time.Millisecond
	for _, c := range []struct {
		rnd  float64
		want time.Duration
	}{
		{0, 80 * time.Millisecond},    // 1 + 0.2*(-1)
		{0.5, 100 * time.Millisecond}, // 1 + 0.2*0
		{1, 120 * time.Millisecond},   // 1 + 0.2*(+1)
	} {
		if got := backoffDelay(0, base, time.Second, fixedRand(c.rnd)); got != c.want {
			t.Errorf("rnd=%v: delay = %v, want %v", c.rnd, got, c.want)
		}
	}
	for _, rnd := range []float64{0.1, 0.25, 0.33, 0.7, 0.99} {
		got := backoffDelay(3, base, 10*time.Second, fixedRand(rnd))
		lo := time.Duration(float64(8*base) * (1 - jitter))
		hi := time.Duration(float64(8*base) * (1 + jitter))
		if got < lo || got > hi {
			t.Errorf("rnd=%v: delay %v outside [%v, %v]", rnd, got, lo, hi)
		}
	}
	const max = 80 * time.Millisecond
	rnd := mrand.New(mrand.NewSource(1)).Float64
	for attempt := 0; attempt < 10; attempt++ {
		d := backoffDelay(attempt, 10*time.Millisecond, max, rnd)
		if d < time.Millisecond || d > time.Duration(1.2*float64(max)) {
			t.Fatalf("attempt %d: delay %v outside envelope", attempt, d)
		}
	}
}

// TestBackoffDelayFloor verifies sub-millisecond results are clamped, so
// a zero base cannot spin-dial.
func TestBackoffDelayFloor(t *testing.T) {
	if got := backoffDelay(0, 1, time.Second, fixedRand(0)); got < time.Millisecond {
		t.Fatalf("delay = %v, want >= 1ms", got)
	}
}

// TestSealDropOldestAccounting exercises the queue bound directly: the
// queue keeps the newest batches, evicts from the front, and counts every
// dropped record.
func TestSealDropOldestAccounting(t *testing.T) {
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			u := offline(k.kind, k.prefix, 100)
			payload := make([]byte, 40)
			for i := 0; i < 5; i++ { // 200 bytes total against a 100-byte budget
				u.Seal(payload, 3)
			}
			u.qMu.Lock()
			n := len(u.queue)
			firstSeq, lastSeq := u.queue[0].seq, u.queue[n-1].seq
			u.qMu.Unlock()
			if got := u.QueuedBytes(); got > 100 {
				t.Fatalf("queue holds %d bytes, budget 100", got)
			}
			if n != 2 || firstSeq != 4 || lastSeq != 5 {
				t.Fatalf("queue = %d entries, seqs [%d..%d]; want the 2 newest (4..5)", n, firstSeq, lastSeq)
			}
			if got := u.Backlog(); got != 6 {
				t.Fatalf("Backlog = %d, want 6 (2 batches × 3 records)", got)
			}
			if got := u.c.Dropped.Value(); got != 9 { // 3 evicted batches × 3 records
				t.Fatalf("Dropped = %d, want 9", got)
			}
			if got := u.c.Spilled.Value(); got != 15 { // all 5 batches sealed while offline
				t.Fatalf("Spilled = %d, want 15", got)
			}
		})
	}
}

// TestSealKeepsOversizedBatch verifies a single batch larger than the
// whole budget is still retained (the bound drops oldest, never newest).
func TestSealKeepsOversizedBatch(t *testing.T) {
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			u := offline(k.kind, k.prefix, 10)
			u.Seal(make([]byte, 50), 2)
			u.qMu.Lock()
			defer u.qMu.Unlock()
			if len(u.queue) != 1 || u.c.Dropped.Value() != 0 {
				t.Fatalf("oversized batch evicted: queue=%d dropped=%d", len(u.queue), u.c.Dropped.Value())
			}
		})
	}
}

// TestSealFoldsEvictionIntoMarker checks an evicted batch's records are
// not silently gone: the next seal carries one loss marker covering them,
// placed by the caller's encoder, and a dead uplink discards instead.
func TestSealFoldsEvictionIntoMarker(t *testing.T) {
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			batch := func(ts ...int64) []byte {
				var b []byte
				for _, v := range ts {
					b = append(b, make([]byte, k.prefix)...)
					rec := record.New(1, record.TSVal(v))
					b, _ = rec.Append(b)
				}
				return b
			}
			first := batch(100, 200, 300)
			u := offline(k.kind, k.prefix, len(first)+1)
			u.Seal(first, 3)
			u.Seal(batch(400), 1) // evicts the first batch
			u.Seal(nil, 0)        // a marker-only batch
			u.qMu.Lock()
			last := u.queue[len(u.queue)-1]
			u.qMu.Unlock()
			if last.count != 1 {
				t.Fatalf("marker batch count = %d, want 1", last.count)
			}
			n, lo, hi := Tally(last.payload, k.prefix)
			if n != 3 || lo != 100 || hi != 300 {
				t.Fatalf("marker covers %d records [%d,%d], want 3 [100,300]", n, lo, hi)
			}
			if u.c.LossMarkers.Value() != 1 || u.c.MarkedLost.Value() != 3 {
				t.Fatalf("markers=%d markedLost=%d, want 1/3", u.c.LossMarkers.Value(), u.c.MarkedLost.Value())
			}

			u.state.Store(stateDead)
			u.AddLoss(5, 1, 2)
			if u.Seal(batch(500, 600), 2) || u.PendingLoss() || u.c.Discarded.Value() != 2 {
				t.Fatalf("dead uplink queued a seal or kept its loss (discarded=%d)", u.c.Discarded.Value())
			}
		})
	}
}

// TestAckToReleasesPrefix verifies cumulative acknowledgement frees
// exactly the acked prefix.
func TestAckToReleasesPrefix(t *testing.T) {
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			u := offline(k.kind, k.prefix, 1<<20)
			for i := 0; i < 4; i++ {
				u.Seal(make([]byte, 8), 1)
			}
			u.ackTo(2)
			u.qMu.Lock()
			defer u.qMu.Unlock()
			if len(u.queue) != 2 || u.queue[0].seq != 3 {
				t.Fatalf("after ackTo(2): %d entries, head seq %d", len(u.queue), u.queue[0].seq)
			}
			if got := u.QueuedBytes(); got != 16 {
				t.Fatalf("QueuedBytes = %d, want 16", got)
			}
			if got := u.Backlog(); got != 2 {
				t.Fatalf("Backlog = %d, want 2", got)
			}
		})
	}
}

// TestTallyFoldsMarkers checks the eviction tally of a plain DATA payload
// folds nested markers instead of counting them as single records.
func TestTallyFoldsMarkers(t *testing.T) {
	var payload []byte
	for _, rec := range []record.Record{
		record.New(1, record.TSVal(100)),
		record.NewLossMarker(5, 40, 90),
		record.New(1, record.I32Val(7)), // no timestamp: counted, no range
	} {
		payload, _ = rec.Append(payload)
	}
	if n, lo, hi := Tally(payload, 0); n != 7 || lo != 40 || hi != 100 {
		t.Fatalf("tally = (%d,%d,%d), want (7,40,100)", n, lo, hi)
	}
}

// TestReplayAbortRetransmitsWrittenPrefix is the regression test for the
// silent-loss hole where a redial's replay pump dies mid-pass: batches it
// had already written into the doomed socket stayed flagged sent, the
// next replay skipped them, and the peer's cumulative ack for a later
// sequence (gaps are legal — eviction creates them) released them without
// delivery. The fake peer here never acks on the first connection,
// accepts the resume on the second and immediately resets it mid-replay,
// then behaves on the third — which must receive every sequence.
func TestReplayAbortRetransmitsWrittenPrefix(t *testing.T) {
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) { replayAbort(t, k.kind, k.prefix) })
	}
}

func replayAbort(t *testing.T, kind wire.MsgType, prefix int) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	// Enough queued bytes that the second connection's replay overflows
	// the loopback socket buffers (the kernel autotunes the send buffer
	// up to ~4 MiB) and blocks mid-pass: 330 batches of 16 KiB ≈ 5.4 MiB.
	const conn1Batches = 330
	const batchBytes = 16 << 10

	var mu sync.Mutex
	seqs := make(map[int][]uint64) // connection ordinal → batch seqs received
	conn1Done := make(chan struct{})
	var wg sync.WaitGroup
	defer wg.Wait()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := 1; ; n++ {
			raw, err := ln.Accept()
			if err != nil {
				return
			}
			wc := wire.NewConn(raw)
			msg, err := wc.Recv()
			hello, ok := msg.(*wire.Hello)
			if err != nil || !ok || wc.Send(&wire.HelloAck{Node: 1, Resumed: hello.Resume}) != nil {
				raw.Close()
				continue
			}
			if n == 2 {
				// Read nothing: the replay pump fills the socket buffers,
				// marks those batches sent, and blocks. Then reset the
				// link so the blocked write fails partway through the
				// replay pass.
				time.Sleep(50 * time.Millisecond)
				reset(raw)
				continue
			}
			conn := n
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer raw.Close()
				for {
					msg, err := wc.Recv()
					if err != nil {
						return
					}
					var seq uint64
					switch b := msg.(type) {
					case *wire.DataBatch:
						seq = b.Seq
					case *wire.RelayBatch:
						seq = b.Seq
					default:
						continue
					}
					if msg.Type() != kind {
						t.Errorf("conn %d: got %v frame, want %v", conn, msg.Type(), kind)
					}
					mu.Lock()
					seqs[conn] = append(seqs[conn], seq)
					got := len(seqs[conn])
					mu.Unlock()
					if conn == 1 {
						// Never ack; once the queue holds well over a
						// socket buffer's worth of unacked batches, cut.
						if got == conn1Batches {
							reset(raw)
							close(conn1Done)
							return
						}
						continue
					}
					if wc.Send(&wire.DataAck{Seq: seq}) != nil {
						return
					}
				}
			}()
			if conn >= 3 {
				return // accept loop done; connection 3 is the keeper
			}
		}
	}()

	cfg := testConfig(kind, prefix)
	cfg.Addr = ln.Addr().String()
	cfg.QueueBytes = 16 << 20 // hold the whole backlog; no eviction
	u, err := Dial(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()

	// Ship the backlog one batch at a time (paced on the fake's receive
	// count); the fake cuts after the last.
	payload := make([]byte, batchBytes)
	for i := 0; i < conn1Batches; i++ {
		u.Seal(payload, 680)
		u.Pump()
		waitFor(t, 5*time.Second, func() bool {
			mu.Lock()
			defer mu.Unlock()
			return len(seqs[1]) >= i+1
		})
	}
	<-conn1Done

	// The uplink must reconnect (twice: the mid-replay reset, then the
	// good connection) and drain its whole queue.
	waitFor(t, 10*time.Second, func() bool { return u.Online() && u.Backlog() == 0 })
	if got := u.c.Dropped.Value(); got != 0 {
		t.Fatalf("Dropped = %d, want 0", got)
	}
	mu.Lock()
	defer mu.Unlock()
	var maxSeq uint64
	for _, batch := range seqs {
		for _, q := range batch {
			maxSeq = max(maxSeq, q)
		}
	}
	got := make(map[uint64]bool, len(seqs[3]))
	for _, q := range seqs[3] {
		got[q] = true
	}
	for q := uint64(1); q <= maxSeq; q++ {
		if !got[q] {
			t.Errorf("seq %d never delivered on the surviving connection (conn3 saw %v)", q, seqs[3])
		}
	}
}

// reset aborts a connection with an RST instead of an orderly FIN.
func reset(raw net.Conn) {
	if tc, ok := raw.(*net.TCPConn); ok {
		tc.SetLinger(0)
	}
	raw.Close()
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}
