package relay

import (
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"brisk/internal/ols"
	"brisk/internal/record"
	"brisk/internal/wire"
)

// fakeParent is a hand-driven parent manager: serve gets every accepted
// connection with its 1-based accept ordinal. Cleanup closes the
// listener and every connection, then waits for serve to return.
type fakeParent struct {
	ln    net.Listener
	mu    sync.Mutex
	conns []net.Conn
	wg    sync.WaitGroup
}

func newFakeParent(t *testing.T, serve func(n int, wc *wire.Conn, raw net.Conn)) *fakeParent {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &fakeParent{ln: ln}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		for n := 1; ; n++ {
			raw, err := ln.Accept()
			if err != nil {
				return
			}
			p.mu.Lock()
			p.conns = append(p.conns, raw)
			p.mu.Unlock()
			p.wg.Add(1)
			go func(n int) {
				defer p.wg.Done()
				serve(n, wire.NewConn(raw), raw)
			}(n)
		}
	}()
	t.Cleanup(func() {
		p.vanish()
		p.wg.Wait()
	})
	return p
}

func (p *fakeParent) addr() string { return p.ln.Addr().String() }

// vanish stops accepting and severs every connection: the parent is gone
// for good.
func (p *fakeParent) vanish() {
	p.ln.Close()
	p.mu.Lock()
	for _, c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
}

// answerHello completes the HELLO exchange granting window 0: no flow
// control, so the relay's pump sends everything it has.
func answerHello(wc *wire.Conn) bool {
	msg, err := wc.Recv()
	if _, ok := msg.(*wire.Hello); err != nil || !ok {
		return false
	}
	return wc.Send(&wire.HelloAck{Node: 1, Version: wire.ProtocolVersion}) == nil
}

// statsWithin fails the test if Stats does not answer within a second.
func statsWithin(t *testing.T, rl *Relay) Stats {
	t.Helper()
	got := make(chan Stats, 1)
	go func() { got <- rl.Stats() }()
	select {
	case st := <-got:
		return st
	case <-time.After(time.Second):
		t.Fatal("Stats blocked behind the wedged uplink")
		return Stats{}
	}
}

// closeWithin fails the test if Close has not returned within limit.
func closeWithin(t *testing.T, rl *Relay, limit time.Duration) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		rl.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(limit):
		t.Fatalf("relay Close still blocked after %v", limit)
	}
}

// wedgedParent completes HELLO on every connection and then never reads,
// so the relay's sends fill the socket buffers and block.
func wedgedParent(t *testing.T) *fakeParent {
	return newFakeParent(t, func(_ int, wc *wire.Conn, _ net.Conn) { answerHello(wc) })
}

// bulky is a record wide enough that a few thousand of them overflow the
// loopback socket buffers.
func bulky(i int) record.Record {
	return record.New(5, record.TSVal(time.Now().UnixMicro()), record.I32Val(int32(i)),
		record.StrVal(strings.Repeat("x", 200)))
}

// TestRelayCloseDuringReconnectDoesNotBlock is the relay counterpart of
// the sensor's test: with the parent accepting TCP but never answering
// HELLO, a redial sits in its handshake for up to DialTimeout, and Close
// must abort it rather than wait it out.
func TestRelayCloseDuringReconnectDoesNotBlock(t *testing.T) {
	redialing := make(chan struct{})
	p := newFakeParent(t, func(n int, wc *wire.Conn, raw net.Conn) {
		if n == 1 {
			// Answer the first HELLO, then lose the link.
			answerHello(wc)
			raw.Close()
			return
		}
		if n == 2 {
			close(redialing)
		}
		io.Copy(io.Discard, raw) // read the HELLO, never answer it
	})
	rl, err := New(Config{
		Addr:                 "127.0.0.1:0",
		Parent:               p.addr(),
		ISM:                  testISM(),
		DialTimeout:          8 * time.Second,
		ReconnectBase:        time.Millisecond,
		ReconnectMax:         5 * time.Millisecond,
		MaxReconnectAttempts: -1,
		Logf:                 quietLog,
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-redialing:
	case <-time.After(5 * time.Second):
		t.Fatal("relay never redialed its parent")
	}
	closeWithin(t, rl, 3*time.Second)
}

// TestRelayCloseWedgedParent stalls the uplink against a parent that
// completed HELLO and then stopped reading. The pump blocks in Send
// holding the queue lock, and the downstream merger's Forward tap blocks
// behind it on its next seal, so Close must bound the uplink's sends
// before it closes the downstream manager.
func TestRelayCloseWedgedParent(t *testing.T) {
	p := wedgedParent(t)
	rl, err := New(Config{
		Addr:          "127.0.0.1:0",
		Parent:        p.addr(),
		ISM:           testISM(),
		FlushInterval: time.Millisecond,
		Logf:          quietLog,
	})
	if err != nil {
		t.Fatal(err)
	}
	leaf := dialLeaf(t, rl.Addr(), 0xE1)
	defer leaf.raw.Close()
	var wg sync.WaitGroup
	defer wg.Wait()
	wg.Add(2)
	var payload []byte
	for i := 0; i < 64; i++ {
		rec := bulky(i)
		payload, _ = rec.Append(payload)
	}
	go func() { // flood until the relay stops taking data
		defer wg.Done()
		for seq := uint64(1); ; seq++ {
			if leaf.conn.Send(&wire.DataBatch{Seq: seq, Count: 64, Payload: payload}) != nil {
				return
			}
		}
	}()
	go func() { // drain acks so only the relay can stall the leaf
		defer wg.Done()
		for {
			if _, err := leaf.conn.Recv(); err != nil {
				return
			}
		}
	}()

	// Wedged: the merger stops forwarding once it blocks behind the pump.
	deadline := time.Now().Add(20 * time.Second)
	last, since := rl.forwarded.Value(), time.Now()
	for time.Since(since) < 300*time.Millisecond || last == 0 {
		if !time.Now().Before(deadline) {
			t.Fatal("relay never wedged against the non-reading parent")
		}
		time.Sleep(10 * time.Millisecond)
		if v := rl.forwarded.Value(); v != last {
			last, since = v, time.Now()
		}
	}
	closeWithin(t, rl, 10*time.Second)
	leaf.raw.Close()
}

// TestRelayStatsDoNotBlockOnWedgedParent scrapes the relay while its pump
// is blocked in Send against a parent that stopped reading: the snapshot
// must not wait on the queue lock the pump holds. The batch bound is set
// past the record count so the Forward tap never seals: the flush loop is
// the one blocked in Send, and the merger (and with it the embedded
// manager's own stats) keeps running.
func TestRelayStatsDoNotBlockOnWedgedParent(t *testing.T) {
	p := wedgedParent(t)
	const batches, perBatch = 900, 64 // ≈ 12 MiB of uplink entries
	rl, err := New(Config{
		Addr:          "127.0.0.1:0",
		Parent:        p.addr(),
		ISM:           testISM(),
		BatchRecords:  2 * batches * perBatch,
		FlushInterval: time.Millisecond,
		Logf:          quietLog,
	})
	if err != nil {
		t.Fatal(err)
	}
	leaf := dialLeaf(t, rl.Addr(), 0xE2)
	var wg sync.WaitGroup
	defer wg.Wait()
	defer leaf.raw.Close()
	wg.Add(2)
	go func() {
		defer wg.Done()
		for b := 0; b < batches; b++ {
			var payload []byte
			for i := 0; i < perBatch; i++ {
				rec := bulky(b*perBatch + i)
				payload, _ = rec.Append(payload)
			}
			if leaf.conn.Send(&wire.DataBatch{Seq: uint64(b + 1), Count: perBatch, Payload: payload}) != nil {
				return
			}
		}
	}()
	go func() { // drain acks so only the relay can stall the leaf
		defer wg.Done()
		for {
			if _, err := leaf.conn.Recv(); err != nil {
				return
			}
		}
	}()

	// Scrape throughout: every snapshot must answer, before and after the
	// pump wedges. Wedged means everything was forwarded and shipping has
	// stopped short of it.
	deadline := time.Now().Add(20 * time.Second)
	var shipped uint64
	steady := 0
	for steady < 10 {
		if !time.Now().Before(deadline) {
			t.Fatalf("uplink never wedged: %+v", statsWithin(t, rl))
		}
		st := statsWithin(t, rl)
		if st.Forwarded == batches*perBatch && st.Shipped < st.Forwarded && st.Shipped == shipped {
			steady++
		} else {
			steady = 0
		}
		shipped = st.Shipped
		time.Sleep(20 * time.Millisecond)
	}
	closeWithin(t, rl, 10*time.Second)
}

// TestDeadRelayKeepsAckingLeaves gives up on the parent and then keeps
// feeding the relay: a dead uplink discards what is forwarded (counted in
// Dropped) instead of accumulating it, so its backlog cannot close the
// downstream ack gate and stall the leaves forever.
func TestDeadRelayKeepsAckingLeaves(t *testing.T) {
	p := newFakeParent(t, func(_ int, wc *wire.Conn, raw net.Conn) {
		if answerHello(wc) {
			io.Copy(io.Discard, raw)
		}
	})
	icfg := testISM()
	icfg.Sorter = ols.Config{InitialT: 2000, MaxBuffered: 4000} // ack gate at 3000
	rl, err := New(Config{
		Addr:                 "127.0.0.1:0",
		Parent:               p.addr(),
		ISM:                  icfg,
		FlushInterval:        time.Millisecond,
		ReconnectBase:        time.Millisecond,
		ReconnectMax:         2 * time.Millisecond,
		MaxReconnectAttempts: 2,
		Logf:                 quietLog,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rl.Close()
	p.vanish()
	deadline := time.Now().Add(10 * time.Second)
	for !rl.up.Dead() {
		if !time.Now().Before(deadline) {
			t.Fatal("relay never gave up on its parent")
		}
		time.Sleep(time.Millisecond)
	}

	leaf := dialLeaf(t, rl.Addr(), 0xF1)
	defer leaf.close()
	leaf.raw.SetReadDeadline(time.Now().Add(20 * time.Second))
	const batches, perBatch = 400, 10
	for b := 0; b < batches; b++ {
		recs := make([]record.Record, perBatch)
		for i := range recs {
			recs[i] = record.New(7, record.TSVal(time.Now().UnixMicro()), record.I32Val(int32(b*perBatch+i)))
		}
		leaf.waitAck(leaf.send(recs...))
	}

	deadline = time.Now().Add(10 * time.Second)
	for {
		st := rl.Stats()
		if st.Forwarded == batches*perBatch && st.BacklogRecords == 0 {
			if st.Dropped != st.Forwarded {
				t.Fatalf("dead relay dropped %d of %d forwarded records", st.Dropped, st.Forwarded)
			}
			return
		}
		if !time.Now().Before(deadline) {
			t.Fatalf("dead relay kept a backlog: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
}
