package relay

import (
	"math"
	"sync/atomic"
	"testing"
	"time"
)

// liveRelay starts a relay under a live root with the given backoff
// shape and jitter source; the uplink stays online, so only the test
// draws from the source.
func liveRelay(t *testing.T, base, max time.Duration, rnd func() float64) *Relay {
	t.Helper()
	root := newRoot(t, nil)
	t.Cleanup(func() { root.Close() })
	rl, err := New(Config{
		Addr:          "127.0.0.1:0",
		Parent:        root.Addr(),
		ISM:           testISM(),
		ReconnectBase: base,
		ReconnectMax:  max,
		ReconnectRand: rnd,
		Logf:          quietLog,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rl.Close() })
	return rl
}

// TestBackoffDeterministicWithInjectedRand pins the relay uplink's
// backoff schedule byte-exactly through an injected jitter source — the
// regression test for the untestable wall-clock-seeded RNG. rnd=0.5
// makes the ±20% jitter factor exactly 1, leaving the pure exponential.
func TestBackoffDeterministicWithInjectedRand(t *testing.T) {
	const base, max = 10 * time.Millisecond, 80 * time.Millisecond
	r := liveRelay(t, base, max, func() float64 { return 0.5 })
	want := []time.Duration{base, 2 * base, 4 * base, max, max, max}
	for attempt, w := range want {
		if got := r.up.Backoff(attempt); got != w {
			t.Errorf("attempt %d: delay = %v, want %v", attempt, got, w)
		}
	}
	// Two walks of the same schedule must agree exactly.
	for attempt := range want {
		if a, b := r.up.Backoff(attempt), r.up.Backoff(attempt); a != b {
			t.Fatalf("attempt %d: schedule not deterministic (%v vs %v)", attempt, a, b)
		}
	}
}

// TestBackoffJitterBounds covers the relay's jitter band at the extremes
// of the random source: the factor is 1±0.2, and the floor clamps at 1ms.
func TestBackoffJitterBounds(t *testing.T) {
	const base = 100 * time.Millisecond
	var bits atomic.Uint64
	r := liveRelay(t, base, time.Second, func() float64 { return math.Float64frombits(bits.Load()) })
	for _, tc := range []struct {
		rnd  float64
		want time.Duration
	}{
		{0, 80 * time.Millisecond},
		{0.5, 100 * time.Millisecond},
		{1, 120 * time.Millisecond},
	} {
		bits.Store(math.Float64bits(tc.rnd))
		if got := r.up.Backoff(0); got != tc.want {
			t.Errorf("rnd=%v: delay = %v, want %v", tc.rnd, got, tc.want)
		}
	}
	floor := liveRelay(t, 1, time.Second, func() float64 { return 0 })
	if got := floor.up.Backoff(0); got < time.Millisecond {
		t.Fatalf("delay = %v, want the 1ms floor", got)
	}
}

// TestReconnectRandReachesLiveRelay verifies New wires Config's source
// into the running relay: an outage's backoff draws from it.
func TestReconnectRandReachesLiveRelay(t *testing.T) {
	root := newRoot(t, nil)
	defer root.Close()
	var calls atomic.Int64
	rl, err := New(Config{
		Addr:                 "127.0.0.1:0",
		Parent:               root.Addr(),
		ISM:                  testISM(),
		ReconnectBase:        2 * time.Millisecond,
		ReconnectMax:         10 * time.Millisecond,
		MaxReconnectAttempts: 2,
		ReconnectRand:        func() float64 { calls.Add(1); return 0.5 },
		Logf:                 quietLog,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rl.Close()
	root.Close() // sever the parent: the uplink enters its retry schedule
	deadline := time.Now().Add(10 * time.Second)
	for calls.Load() == 0 {
		if !time.Now().Before(deadline) {
			t.Fatal("outage backoff never drew from the injected jitter source")
		}
		time.Sleep(time.Millisecond)
	}
}
