package ism

import (
	"net"
	"testing"
	"time"

	"brisk/internal/exs"
	"brisk/internal/faultnet"
	"brisk/internal/sensor"
	"brisk/internal/shm"
	"brisk/internal/wire"
)

// waitUntil polls cond until it holds or the timeout passes.
func waitUntil(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestResumeExactlyOnceThroughFaultyLink is the flagship fault-injection
// test: an external sensor streams records through a faultnet proxy that
// severs the link mid-frame several times. The sensor must reconnect and
// resume its session, and the manager's output must contain every record
// exactly once — no gaps (retransmission works) and no duplicates
// (sequence dedupe works) — with the same node id throughout.
func TestResumeExactlyOnceThroughFaultyLink(t *testing.T) {
	m := newManager(t, Config{})
	proxy, err := faultnet.Listen(m.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	region := shm.NewRegion()
	e, err := exs.Dial(exs.Config{
		ManagerAddr:          proxy.Addr(),
		NodeName:             "flaky",
		Region:               region,
		FlushInterval:        time.Millisecond,
		PollInterval:         200 * time.Microsecond,
		ReconnectBase:        2 * time.Millisecond,
		ReconnectMax:         10 * time.Millisecond,
		MaxReconnectAttempts: -1,
		Logf:                 quietLog,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	node := e.Node()
	s := sensor.New(region, "app", sensor.Options{})

	const rounds = 4
	const perRound = 200
	seq := int32(0)
	for r := 0; r < rounds; r++ {
		if r > 0 {
			// Sever deterministically mid-frame: 7 more upstream bytes
			// pass, then the link dies — a frame header is 5 bytes, so
			// this round's first DATA frame is truncated in its body.
			proxy.CutAfter(7)
		}
		for i := 0; i < perRound; i++ {
			for !s.Notice2i(1, seq, 0) {
				time.Sleep(time.Microsecond)
			}
			seq++
		}
		e.Flush()
		if r > 0 {
			waitUntil(t, 10*time.Second, "reconnect", func() bool {
				st := e.Stats()
				return st.Online && st.Reconnects >= uint64(r)
			})
		}
	}
	const total = rounds * perRound

	// Everything must land and be acknowledged: the sensor's retransmit
	// queue drains to zero only once the manager accepted every batch.
	waitUntil(t, 15*time.Second, "all records acknowledged", func() bool {
		st := e.Stats()
		return st.Online && st.QueuedBytes == 0 && st.Sent == total
	})
	waitUntil(t, 15*time.Second, "all records emitted", func() bool {
		return m.Stats().Emitted >= total
	})

	got := drainCursor(t, m, total, 15*time.Second)
	seen := make(map[int64]int)
	for _, r := range got {
		seen[r.Fields[1].Int()]++
		if r.Node != node {
			t.Fatalf("record attributed to node %d, want %d", r.Node, node)
		}
	}
	for i := int64(0); i < total; i++ {
		switch seen[i] {
		case 1:
		case 0:
			t.Fatalf("record %d lost across reconnects (gap)", i)
		default:
			t.Fatalf("record %d delivered %d times (duplicate)", i, seen[i])
		}
	}
	if len(got) != total {
		t.Fatalf("emitted %d records, want exactly %d", len(got), total)
	}

	st := m.Stats()
	if st.ResumedSessions < uint64(rounds-1) {
		t.Fatalf("ResumedSessions = %d, want >= %d", st.ResumedSessions, rounds-1)
	}
	if e.Node() != node {
		t.Fatalf("node id changed across resume: %d -> %d", node, e.Node())
	}
	// One logical node: one connection, one session, and therefore one
	// clock-sync slave entry when rounds run.
	if st.Connected != 1 || st.Sessions != 1 {
		t.Fatalf("Connected=%d Sessions=%d, want 1/1", st.Connected, st.Sessions)
	}
	if es := e.Stats(); es.Reconnects < uint64(rounds-1) || es.Retransmits == 0 {
		t.Fatalf("exs stats: %+v — expected reconnects and retransmits", es)
	}
}

// dialRaw opens a raw wire client and completes the HELLO exchange.
func dialRaw(t *testing.T, m *Manager, session uint64, resume bool) (*wire.Conn, *wire.HelloAck, func()) {
	t.Helper()
	raw, err := net.Dial("tcp", m.Addr())
	if err != nil {
		t.Fatal(err)
	}
	wc := wire.NewConn(raw)
	if err := wc.Send(&wire.Hello{
		Version: wire.ProtocolVersion, Name: "raw", Session: session, Resume: resume,
	}); err != nil {
		t.Fatal(err)
	}
	msg, err := wc.Recv()
	if err != nil {
		t.Fatal(err)
	}
	ack, ok := msg.(*wire.HelloAck)
	if !ok {
		t.Fatalf("expected HELLO_ACK, got %v", msg.Type())
	}
	return wc, ack, func() { raw.Close() }
}

// recvAck reads frames until a DATA_ACK arrives (skipping heartbeats).
func recvAck(t *testing.T, wc *wire.Conn) *wire.DataAck {
	t.Helper()
	for {
		msg, err := wc.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if a, ok := msg.(*wire.DataAck); ok {
			return a
		}
	}
}

// TestSequenceDedupeAndResumeHandshake drives the session protocol with
// handcrafted frames: replayed sequence numbers are dropped and re-acked,
// and a resumed HELLO reports the node id and high-water mark.
func TestSequenceDedupeAndResumeHandshake(t *testing.T) {
	m := newManager(t, Config{HeartbeatInterval: -1})
	const session = 0xABCD
	payload := newRecordBytes(t)

	wc, ack, closeFn := dialRaw(t, m, session, false)
	if ack.Resumed || ack.LastSeq != 0 {
		t.Fatalf("fresh session acked as resumed: %+v", ack)
	}
	node := ack.Node

	if err := wc.Send(&wire.DataBatch{Seq: 1, Count: 1, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	if a := recvAck(t, wc); a.Seq != 1 {
		t.Fatalf("ack seq = %d, want 1", a.Seq)
	}
	// Replay the same batch: dropped, but re-acked so the sender drains.
	if err := wc.Send(&wire.DataBatch{Seq: 1, Count: 1, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	if a := recvAck(t, wc); a.Seq != 1 {
		t.Fatalf("replay re-ack seq = %d, want 1", a.Seq)
	}
	// Poll: the check should not depend on when the counters move.
	waitUntil(t, 5*time.Second, "replay dropped", func() bool {
		st := m.Stats()
		return st.DedupedBatches == 1 && st.Received == 1
	})
	closeFn()
	waitUntil(t, 5*time.Second, "detach", func() bool { return m.Stats().Connected == 0 })

	// Resume: same node id, high-water mark reported, replays still dropped.
	wc2, ack2, closeFn2 := dialRaw(t, m, session, true)
	defer closeFn2()
	if !ack2.Resumed || ack2.Node != node || ack2.LastSeq != 1 {
		t.Fatalf("resume ack = %+v, want Resumed node=%d lastSeq=1", ack2, node)
	}
	if err := wc2.Send(&wire.DataBatch{Seq: 1, Count: 1, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	if a := recvAck(t, wc2); a.Seq != 1 {
		t.Fatalf("post-resume re-ack seq = %d", a.Seq)
	}
	if err := wc2.Send(&wire.DataBatch{Seq: 2, Count: 1, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	if a := recvAck(t, wc2); a.Seq != 2 {
		t.Fatalf("new batch ack seq = %d, want 2", a.Seq)
	}
	waitUntil(t, 5*time.Second, "final stats", func() bool {
		st := m.Stats()
		return st.DedupedBatches == 2 && st.Received == 2 && st.ResumedSessions == 1
	})
}

// TestSessionRetentionExpiry verifies a detached session past the
// retention window loses its identity: a later resume gets a fresh node.
func TestSessionRetentionExpiry(t *testing.T) {
	m := newManager(t, Config{
		HeartbeatInterval: 5 * time.Millisecond, // drives the purge loop
		SessionRetention:  10 * time.Millisecond,
	})
	_, ack, closeFn := dialRaw(t, m, 99, false)
	closeFn()
	waitUntil(t, 5*time.Second, "session expiry", func() bool { return m.Stats().Sessions == 0 })

	_, ack2, closeFn2 := dialRaw(t, m, 99, true)
	defer closeFn2()
	if ack2.Resumed {
		t.Fatal("expired session resumed")
	}
	if ack2.Node == ack.Node {
		t.Fatalf("expired session kept node id %d", ack.Node)
	}
}

// TestHeartbeatReapsSilentPeer verifies a half-open connection — one that
// never answers pings — is detected and severed.
func TestHeartbeatReapsSilentPeer(t *testing.T) {
	m := newManager(t, Config{HeartbeatInterval: 10 * time.Millisecond})
	raw, err := net.Dial("tcp", m.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	wc := wire.NewConn(raw)
	if err := wc.Send(&wire.Hello{Version: wire.ProtocolVersion, Name: "mute"}); err != nil {
		t.Fatal(err)
	}
	if _, err := wc.Recv(); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 5*time.Second, "attach", func() bool { return m.Stats().Connected == 1 })
	// Say nothing, answer nothing. The manager must reap us.
	waitUntil(t, 10*time.Second, "dead-peer reap", func() bool {
		st := m.Stats()
		return st.Connected == 0 && st.DeadPeers >= 1
	})
}

// TestResumeExactlyOnceUnderBackpressure resumes a session while its old
// reader is parked mid-hand-off: the test holds sorterMu, so the merger
// stalls inside its first batch, the merge channel fills and the reader
// blocks on it with one more batch in hand. The resumed HELLO_ACK's
// LastSeq must cover that batch, so replaying every later sequence on the
// new link emits each record exactly once.
func TestResumeExactlyOnceUnderBackpressure(t *testing.T) {
	m := newManager(t, Config{HeartbeatInterval: -1})
	const session = 0x5EED
	const total = 400

	s := sensor.New(newTestRegion(), "bp", sensor.Options{})
	payloads := make([][]byte, total+1) // payloads[i] carries value i
	for i := 1; i <= total; i++ {
		s.Notice2i(1, int32(i), 0)
		s.Ring().Drain(1, func(b []byte) { payloads[i] = append([]byte(nil), b...) })
	}

	wc, _, closeFn := dialRaw(t, m, session, false)
	defer closeFn()
	m.sorterMu.Lock()
	released := make(chan struct{})
	go func() {
		defer close(released)
		deadline := time.Now().Add(10 * time.Second)
		for len(m.merge) < cap(m.merge) && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		time.Sleep(300 * time.Millisecond)
		m.sorterMu.Unlock()
	}()
	for i := 1; i <= total; i++ {
		if err := wc.Send(&wire.DataBatch{Seq: uint64(i), Count: 1, Payload: payloads[i]}); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, 10*time.Second, "merge channel full", func() bool { return len(m.merge) == cap(m.merge) })

	// Resume while the old reader is parked; replay everything above the
	// reported high-water mark, as a sensor's retransmit queue would.
	wc2, ack, closeFn2 := dialRaw(t, m, session, true)
	defer closeFn2()
	if !ack.Resumed {
		t.Fatalf("resume ack = %+v, want Resumed", ack)
	}
	for i := ack.LastSeq + 1; i <= total; i++ {
		if err := wc2.Send(&wire.DataBatch{Seq: i, Count: 1, Payload: payloads[i]}); err != nil {
			t.Fatal(err)
		}
	}
	<-released

	waitUntil(t, 10*time.Second, "all records emitted", func() bool { return m.Stats().Emitted >= total })
	time.Sleep(20 * time.Millisecond) // a late duplicate would land within a few merge ticks
	got := drainCursor(t, m, total+1, 100*time.Millisecond)
	seen := make(map[int64]int)
	for _, r := range got {
		seen[r.Fields[1].Int()]++
	}
	for i := int64(1); i <= total; i++ {
		if seen[i] != 1 {
			t.Fatalf("record %d emitted %d times (resume LastSeq %d)", i, seen[i], ack.LastSeq)
		}
	}
	if len(got) != total {
		t.Fatalf("emitted %d records, want exactly %d", len(got), total)
	}
}

// TestMalformedBatchAdvancesLastSeq sends a batch that does not decode on
// a session link. The manager drops the link, but records the batch's
// sequence first, so the resumed HELLO_ACK tells the sensor not to replay
// the poison batch forever.
func TestMalformedBatchAdvancesLastSeq(t *testing.T) {
	m := newManager(t, Config{HeartbeatInterval: -1})
	const session = 0xBAD
	wc, _, closeFn := dialRaw(t, m, session, false)
	defer closeFn()
	if err := wc.Send(&wire.DataBatch{Seq: 1, Count: 1, Payload: newRecordBytes(t)}); err != nil {
		t.Fatal(err)
	}
	if a := recvAck(t, wc); a.Seq != 1 {
		t.Fatalf("ack seq = %d, want 1", a.Seq)
	}
	const bad = 2
	if err := wc.Send(&wire.DataBatch{Seq: bad, Count: 1, Payload: []byte{0, 1, 2}}); err != nil {
		t.Fatal(err)
	}
	dropped := make(chan struct{})
	go func() {
		defer close(dropped)
		for {
			if _, err := wc.Recv(); err != nil {
				return
			}
		}
	}()
	select {
	case <-dropped:
	case <-time.After(5 * time.Second):
		t.Fatal("manager kept the link after a malformed batch")
	}

	_, ack, closeFn2 := dialRaw(t, m, session, true)
	defer closeFn2()
	if !ack.Resumed || ack.LastSeq < bad {
		t.Fatalf("resume ack = %+v, want Resumed with LastSeq >= %d", ack, bad)
	}
}
