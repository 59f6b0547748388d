package exs

import (
	"context"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"brisk/internal/sensor"
	"brisk/internal/shm"
	"brisk/internal/wire"
)

// fakeISM is a minimal manager: it completes the HELLO exchange, records
// what it receives, and (optionally) acknowledges batches.
type fakeISM struct {
	ln      net.Listener
	ackAll  bool
	mu      sync.Mutex
	conns   []net.Conn
	hellos  []wire.Hello
	batches []wire.DataBatch
	wg      sync.WaitGroup
}

func newFakeISM(t *testing.T, ackAll bool) *fakeISM {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeISM{ln: ln, ackAll: ackAll}
	f.wg.Add(1)
	go f.acceptLoop()
	t.Cleanup(func() { f.Close() })
	return f
}

func (f *fakeISM) addr() string { return f.ln.Addr().String() }

func (f *fakeISM) acceptLoop() {
	defer f.wg.Done()
	node := int32(0)
	for {
		raw, err := f.ln.Accept()
		if err != nil {
			return
		}
		f.mu.Lock()
		f.conns = append(f.conns, raw)
		f.mu.Unlock()
		node++
		f.wg.Add(1)
		go f.serve(raw, node)
	}
}

func (f *fakeISM) serve(raw net.Conn, node int32) {
	defer f.wg.Done()
	wc := wire.NewConn(raw)
	msg, err := wc.Recv()
	if err != nil {
		return
	}
	hello, ok := msg.(*wire.Hello)
	if !ok {
		return
	}
	f.mu.Lock()
	f.hellos = append(f.hellos, *hello)
	f.mu.Unlock()
	if wc.Send(&wire.HelloAck{Node: node}) != nil {
		return
	}
	for {
		msg, err := wc.Recv()
		if err != nil {
			return
		}
		if b, ok := msg.(*wire.DataBatch); ok {
			f.mu.Lock()
			f.batches = append(f.batches, wire.DataBatch{Seq: b.Seq, Count: b.Count})
			f.mu.Unlock()
			if f.ackAll {
				if wc.Send(&wire.DataAck{Seq: b.Seq}) != nil {
					return
				}
			}
		}
	}
}

// Close severs everything: listener and all accepted connections.
func (f *fakeISM) Close() {
	f.ln.Close()
	f.mu.Lock()
	for _, c := range f.conns {
		c.Close()
	}
	f.mu.Unlock()
	f.wg.Wait()
}

// pinnedRand is a jitter source a test can pin to any value between draws.
type pinnedRand struct{ bits atomic.Uint64 }

func (p *pinnedRand) set(v float64) { p.bits.Store(math.Float64bits(v)) }
func (p *pinnedRand) draw() float64 { return math.Float64frombits(p.bits.Load()) }

// TestBackoffDelaySchedule verifies the sensor's reconnect schedule: its
// Config's base and cap reach the shared uplink, which doubles from the
// base up to the cap. rnd=0.5 makes the jitter factor exactly 1.
func TestBackoffDelaySchedule(t *testing.T) {
	f := newFakeISM(t, true)
	const base, max = 10 * time.Millisecond, 80 * time.Millisecond
	e, _ := dialFake(t, f, func(c *Config) {
		c.ReconnectBase, c.ReconnectMax = base, max
		c.ReconnectRand = func() float64 { return 0.5 }
	})
	want := []time.Duration{10, 20, 40, 80, 80, 80}
	for attempt, w := range want {
		if got := e.up.Backoff(attempt); got != w*time.Millisecond {
			t.Errorf("attempt %d: delay = %v, want %v", attempt, got, w*time.Millisecond)
		}
	}
}

// TestBackoffDelayJitterBounds verifies the sensor's schedule keeps the
// ±20% jitter band at the extremes of its random source and in between.
func TestBackoffDelayJitterBounds(t *testing.T) {
	f := newFakeISM(t, true)
	const base = 100 * time.Millisecond
	var rnd pinnedRand
	e, _ := dialFake(t, f, func(c *Config) {
		c.ReconnectBase, c.ReconnectMax = base, 10*time.Second
		c.ReconnectRand = rnd.draw
	})
	cases := []struct {
		rnd  float64
		want time.Duration
	}{
		{0, 80 * time.Millisecond},    // 1 + 0.2*(-1)
		{0.5, 100 * time.Millisecond}, // 1 + 0.2*0
		{1, 120 * time.Millisecond},   // 1 + 0.2*(+1)
	}
	for _, c := range cases {
		rnd.set(c.rnd)
		if got := e.up.Backoff(0); got != c.want {
			t.Errorf("rnd=%v: delay = %v, want %v", c.rnd, got, c.want)
		}
	}
	// Any rnd value must land inside the band.
	for _, v := range []float64{0.1, 0.25, 0.33, 0.7, 0.99} {
		rnd.set(v)
		got := e.up.Backoff(3)
		lo := time.Duration(float64(8*base) * 0.8)
		hi := time.Duration(float64(8*base) * 1.2)
		if got < lo || got > hi {
			t.Errorf("rnd=%v: delay %v outside [%v, %v]", v, got, lo, hi)
		}
	}
}

// dialFake connects an EXS to a fake manager with fast test timings.
func dialFake(t *testing.T, f *fakeISM, mutate func(*Config)) (*EXS, *shm.Region) {
	t.Helper()
	region := shm.NewRegion()
	cfg := Config{
		ManagerAddr:   f.addr(),
		NodeName:      "t",
		Region:        region,
		FlushInterval: time.Millisecond,
		PollInterval:  200 * time.Microsecond,
		ReconnectBase: 2 * time.Millisecond,
		ReconnectMax:  10 * time.Millisecond,
		Logf:          func(string, ...any) {},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	e, err := Dial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e, region
}

// TestRetryCapDegradesToOffline kills the manager for good and verifies
// the sensor runs its capped schedule, gives up, counts the stranded
// queue as dropped, and keeps draining (LostOffline grows, ring empties).
func TestRetryCapDegradesToOffline(t *testing.T) {
	f := newFakeISM(t, false)
	e, region := dialFake(t, f, func(c *Config) { c.MaxReconnectAttempts = 2 })
	s := sensor.New(region, "app", sensor.Options{})

	s.Notice2i(1, 1, 0)
	e.Flush()
	waitFor(t, 5*time.Second, func() bool { return e.Stats().Sent == 1 })

	f.Close()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		s.Notice2i(1, 2, 0)
		e.Flush()
		st := e.Stats()
		if !st.Online && st.LostOffline > 0 {
			// The unacked in-flight record was stranded in the queue and
			// counted when the sensor gave up.
			if st.Dropped == 0 {
				t.Fatalf("stranded queue not counted: %+v", st)
			}
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("sensor never degraded to offline: %+v", e.Stats())
}

// TestReconnectResumesAndRetransmits bounces every connection after the
// first batch and verifies the sensor reconnects (new HELLO carries the
// same session id with Resume set) and replays the unacked batch.
func TestReconnectResumesAndRetransmits(t *testing.T) {
	f := newFakeISM(t, false) // never acks: everything stays queued
	e, region := dialFake(t, f, nil)
	s := sensor.New(region, "app", sensor.Options{})

	s.Notice2i(1, 1, 0)
	e.Flush()
	waitFor(t, 5*time.Second, func() bool {
		f.mu.Lock()
		defer f.mu.Unlock()
		return len(f.batches) >= 1
	})

	// Kill the live connection only; the listener stays up.
	f.mu.Lock()
	for _, c := range f.conns {
		c.Close()
	}
	f.mu.Unlock()

	waitFor(t, 5*time.Second, func() bool {
		st := e.Stats()
		return st.Online && st.Reconnects >= 1
	})
	waitFor(t, 5*time.Second, func() bool {
		f.mu.Lock()
		defer f.mu.Unlock()
		return len(f.batches) >= 2 // the unacked batch was replayed
	})
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.hellos) < 2 {
		t.Fatalf("hellos = %d, want 2", len(f.hellos))
	}
	h0, h1 := f.hellos[0], f.hellos[1]
	if h0.Session == 0 || h0.Session != h1.Session {
		t.Fatalf("session ids: first %d, second %d — must match and be nonzero", h0.Session, h1.Session)
	}
	if h0.Resume || !h1.Resume {
		t.Fatalf("resume flags: first %v, second %v", h0.Resume, h1.Resume)
	}
	if f.batches[0].Seq != f.batches[len(f.batches)-1].Seq {
		t.Fatalf("replayed batch changed seq: %d vs %d", f.batches[0].Seq, f.batches[len(f.batches)-1].Seq)
	}
	if e.Stats().Retransmits == 0 {
		t.Fatal("Retransmits not counted")
	}
	if e.Stats().Sent != 1 {
		t.Fatalf("Sent = %d after replay, want 1 (no double count)", e.Stats().Sent)
	}
}

// TestCloseDuringReconnectDoesNotBlock is the regression test for Close
// racing an active reconnect loop: with the manager gone and an
// effectively unbounded retry schedule, Close must still return promptly
// and leave no goroutine wedged in a backoff sleep or dial.
func TestCloseDuringReconnectDoesNotBlock(t *testing.T) {
	f := newFakeISM(t, false)
	e, region := dialFake(t, f, func(c *Config) {
		c.MaxReconnectAttempts = -1 // retry forever
		c.ReconnectBase = 10 * time.Second
		c.ReconnectMax = 10 * time.Second
	})
	s := sensor.New(region, "app", sensor.Options{})
	s.Notice2i(1, 1, 0)
	e.Flush()
	waitFor(t, 5*time.Second, func() bool { return e.Stats().Sent == 1 })

	f.Close()
	waitFor(t, 5*time.Second, func() bool { return !e.Stats().Online })

	closed := make(chan error, 1)
	go func() { closed <- e.Close() }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close blocked on an active reconnect loop")
	}
	// The stranded queue is accounted for, not leaked.
	if st := e.Stats(); st.Dropped == 0 {
		t.Fatalf("unacked records not counted at close: %+v", st)
	}
}

// TestDialContextCancelAbortsBackoff verifies canceling the lifetime
// context mid-outage stops reconnection permanently.
func TestDialContextCancelAbortsBackoff(t *testing.T) {
	f := newFakeISM(t, false)
	region := shm.NewRegion()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e, err := DialContext(ctx, Config{
		ManagerAddr:          f.addr(),
		Region:               region,
		FlushInterval:        time.Millisecond,
		PollInterval:         200 * time.Microsecond,
		ReconnectBase:        time.Hour, // would block Close without ctx
		ReconnectMax:         time.Hour,
		MaxReconnectAttempts: -1,
		Logf:                 func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	f.Close()
	waitFor(t, 5*time.Second, func() bool { return !e.Stats().Online })
	cancel()
	closed := make(chan struct{})
	go func() { e.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close blocked despite canceled context")
	}
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

// TestReconnectRandInjectable verifies Config.ReconnectRand is the
// source the live reconnect schedule draws from: with a deterministic
// injected source, the sensor's per-attempt delays are an exact,
// reproducible function of the attempt number, and a real outage
// consumes draws from that source (not a hidden wall-clock-seeded RNG).
func TestReconnectRandInjectable(t *testing.T) {
	f := newFakeISM(t, true)
	var calls atomic.Int64
	const base, max = 10 * time.Millisecond, 80 * time.Millisecond
	e, _ := dialFake(t, f, func(c *Config) {
		c.ReconnectBase = base
		c.ReconnectMax = max
		c.MaxReconnectAttempts = 2
		// rnd=0.5 makes the jitter factor exactly 1, so the schedule is
		// the pure exponential — byte-exact assertions below.
		c.ReconnectRand = func() float64 { calls.Add(1); return 0.5 }
	})
	want := []time.Duration{base, 2 * base, 4 * base, max, max}
	for attempt, w := range want {
		if got := e.up.Backoff(attempt); got != w {
			t.Errorf("attempt %d: delay = %v, want %v (injected source must pin the schedule)", attempt, got, w)
		}
	}
	probes := calls.Load() // draws consumed by the assertions above

	// A real outage must draw its backoff jitter from the same source.
	f.Close()
	waitFor(t, 10*time.Second, e.up.Dead)
	if calls.Load() <= probes {
		t.Fatal("outage reconnect schedule did not draw from the injected jitter source")
	}
}
