package ols

import (
	"testing"

	"brisk/internal/record"
)

// boundedConfig turns on every piece of bookkeeping that runs on the hot
// path — adaptive growth, decay, the occupancy bound and the per-source
// quota — with limits the steady-state loops never reach.
var boundedConfig = Config{
	InitialT:    10,
	Grow:        GrowDouble,
	HalfLife:    1000,
	MaxBuffered: 1 << 16,
	SourceQuota: 1 << 12,
}

// assertSorterSteadyStateAllocFree warms a sorter under cfg with two
// in-order sources, then requires a push/extract cycle to allocate nothing.
func assertSorterSteadyStateAllocFree(t *testing.T, cfg Config) {
	t.Helper()
	s := New(cfg)
	emit := func(record.Record) {}
	// Warm up: establish both source queues and their slot capacity.
	now := int64(0)
	for i := 0; i < 4096; i++ {
		now += 100
		s.Push(1, rec(now), now)
		s.Push(2, rec(now+1), now)
		s.Extract(now, emit)
	}
	s.Flush(emit)
	// Reuse two record values across runs: record.New allocates a Fields
	// slice, which is the caller's cost, not the sorter's.
	r1, r2 := rec(0), rec(0)
	allocs := testing.AllocsPerRun(1000, func() {
		now += 100
		r1.SetTS(now)
		r2.SetTS(now + 1)
		s.Push(1, r1, now)
		s.Push(2, r2, now)
		s.Extract(now, emit)
	})
	if allocs != 0 {
		t.Fatalf("steady-state push/extract allocates %.1f times, want 0", allocs)
	}
}

// assertShardedSteadyStateAllocFree is the sharded counterpart: eight
// in-order sources across four shards, push/extract/merge must allocate
// nothing once warm.
func assertShardedSteadyStateAllocFree(t *testing.T, cfg Config) {
	t.Helper()
	sh := NewSharded(cfg, 4)
	emit := func(record.Record) {}
	const sources = 8
	now := int64(0)
	warm := make([]record.Record, sources)
	for i := range warm {
		warm[i] = rec(0)
	}
	for i := 0; i < 4096; i++ {
		now += 100
		for s := int32(1); s <= sources; s++ {
			warm[s-1].SetTS(now + int64(s))
			sh.Push(s, warm[s-1], now)
		}
		sh.Extract(now, emit)
	}
	sh.Flush(emit)
	allocs := testing.AllocsPerRun(1000, func() {
		now += 100
		for s := int32(1); s <= sources; s++ {
			warm[s-1].SetTS(now + int64(s))
			sh.Push(s, warm[s-1], now)
		}
		sh.Extract(now, emit)
	})
	if allocs != 0 {
		t.Fatalf("steady-state sharded push/extract allocates %.1f times, want 0", allocs)
	}
}

// TestAllocsSteadyStatePushExtract pins the sorter's zero-allocation
// contract: once each source queue has warmed its slot storage, a
// push/extract cycle allocates nothing — Push deep-copies into the slot's
// reused Fields array and Extract hands out borrowed storage.
func TestAllocsSteadyStatePushExtract(t *testing.T) {
	assertSorterSteadyStateAllocFree(t, Config{InitialT: 10, Grow: GrowFixed})
}

// TestAllocsShardedSteadyState pins the sharded sorter's steady-state
// zero-allocation contract: once queue slots, merge runs and the loser
// tree are warm, a push/extract/merge cycle allocates nothing — the
// Fields arrays circulate between shard queue slots and merge-run slots
// through Sorter.extract's swap.
func TestAllocsShardedSteadyState(t *testing.T) {
	assertShardedSteadyStateAllocFree(t, Config{InitialT: 10, Grow: GrowFixed})
}

// TestAllocsSteadyStateBothCores pins the same contract, bare and
// sharded, on the heap core with boundedConfig, so the growth, decay,
// occupancy and quota bookkeeping stays allocation-free as well.
func TestAllocsSteadyStateBothCores(t *testing.T) {
	t.Run("sorter/heap", func(t *testing.T) {
		assertSorterSteadyStateAllocFree(t, boundedConfig)
	})
	t.Run("sharded/heap", func(t *testing.T) {
		assertShardedSteadyStateAllocFree(t, boundedConfig)
	})
}
