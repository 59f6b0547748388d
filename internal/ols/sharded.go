// Sharded parallel sorting: sources are partitioned across independent
// sorter shards — each with its own heap, adaptive time frame T and
// per-source bookkeeping — whose individually monotone outputs are
// recombined through a loser-tree k-way merge keyed by synchronized
// timestamps. The delay-window semantics only require a totally ordered
// emission, not a single ordering structure, so pushes into different
// shards can proceed in parallel while one merger drains them.
package ols

import (
	"math"
	"sync"
	"sync/atomic"

	"brisk/internal/record"
)

// Sharded partitions sources across n independent Sorters and merges
// their emissions into one timestamp-ordered stream.
//
// Concurrency contract: Push and PushBatch are safe to call from any
// number of goroutines (distinct sources contend only when they hash to
// the same shard). Extract, Flush, TakeLosses and DropsBySource must be
// called from a single merger goroutine. The read-only accessors
// (Buffered, Stats, TimeFrame, shard views) are safe from anywhere.
//
// With n == 1 every call delegates straight to the inner Sorter — same
// code path, same emission order, byte-identical output.
type Sharded struct {
	shards []*shard

	// agg is the aggregate occupancy across all shards. Every shard's
	// MaxBuffered check reads it (via occRef), so the bound stays a
	// global budget; the ISM's ack-gate hysteresis reads it too.
	agg atomic.Int64

	// Global emission frontier of the merged stream. Shards consult it
	// (via orderRef) for inversion detection, so a record that arrives
	// behind the merged output grows its shard's T even when its own
	// shard has emitted nothing newer.
	gLastTS  atomic.Int64
	gLastSrc atomic.Int32
	gEmitted atomic.Bool

	runs   []mergeRun // per-shard staging for the k-way merge
	lt     loserTree
	stalls atomic.Uint64 // Extract passes that emitted nothing while records were buffered
}

// shard pairs a Sorter with the lock that serializes pushes into it
// against the merger's extraction pass.
type shard struct {
	mu sync.Mutex
	s  *Sorter
}

// NewSharded returns a sharded sorter with n shards, each configured
// with cfg. n < 1 is treated as 1.
func NewSharded(cfg Config, n int) *Sharded {
	if n < 1 {
		n = 1
	}
	sh := &Sharded{shards: make([]*shard, n), runs: make([]mergeRun, n)}
	for i := range sh.shards {
		s := New(cfg)
		if n > 1 {
			s.orderRef = sh.frontier
			s.occRef = func() int { return int(sh.agg.Load()) }
		}
		sh.shards[i] = &shard{s: s}
	}
	return sh
}

// NumShards returns the shard count.
func (sh *Sharded) NumShards() int { return len(sh.shards) }

func (sh *Sharded) frontier() (int64, int32, bool) {
	return sh.gLastTS.Load(), sh.gLastSrc.Load(), sh.gEmitted.Load()
}

// shardFor routes a source to its shard. All records from one source
// land in one shard, so per-source FIFO order is preserved.
func (sh *Sharded) shardFor(src int32) int {
	return int(uint32(src)) % len(sh.shards)
}

// Push enqueues one record from a source, as Sorter.Push.
func (sh *Sharded) Push(src int32, rec record.Record, now int64) {
	shd := sh.shards[sh.shardFor(src)]
	shd.mu.Lock()
	before := shd.s.buffered
	shd.s.Push(src, rec, now)
	sh.agg.Add(int64(shd.s.buffered - before))
	shd.mu.Unlock()
}

// PushBatch enqueues a decoded batch from one source, taking the shard
// lock once for the whole batch.
func (sh *Sharded) PushBatch(src int32, recs []record.Record, now int64) {
	if len(recs) == 0 {
		return
	}
	shd := sh.shards[sh.shardFor(src)]
	shd.mu.Lock()
	before := shd.s.buffered
	for i := range recs {
		shd.s.Push(src, recs[i], now)
	}
	sh.agg.Add(int64(shd.s.buffered - before))
	shd.mu.Unlock()
}

// PushMixed enqueues a decoded batch whose records carry their own
// origin in rec.Node — a relay-forwarded batch interleaving many
// sources. Records are routed shard-by-shard exactly as Push would route
// them individually, but the shard lock is taken once per consecutive
// same-shard run. Relative order within each source is preserved (the
// batch is scanned front to back), so per-source FIFO holds.
func (sh *Sharded) PushMixed(recs []record.Record, now int64) {
	for i := 0; i < len(recs); {
		si := sh.shardFor(recs[i].Node)
		j := i + 1
		for j < len(recs) && sh.shardFor(recs[j].Node) == si {
			j++
		}
		shd := sh.shards[si]
		shd.mu.Lock()
		before := shd.s.buffered
		for k := i; k < j; k++ {
			shd.s.Push(recs[k].Node, recs[k], now)
		}
		sh.agg.Add(int64(shd.s.buffered - before))
		shd.mu.Unlock()
		i = j
	}
}

// Extract emits, in merged timestamp order, every buffered record that
// has aged at least its shard's T. The same now is applied to every
// shard within the pass, which is what keeps the merged stream monotone
// whenever each T covers its sources' lateness: a record that could
// order before an already-merged one must have been at least as aged at
// the same instant, so it was extracted in the same or an earlier pass.
//
// How long the records passed to emit stay valid depends on the shard
// count. With several shards their Fields live in merge staging reused
// per pass, so they are valid until the next Extract or Flush call. With
// one shard the call delegates to Sorter.Extract and the Fields alias
// the shard's queue slots, so they are valid only until the next Push
// into that shard — a caller that pushes from other goroutines must
// keep those pushes off until it is done with the records (the manager
// does so by pushing on its merger at one shard). Callers retaining
// records longer must record.Detach them.
func (sh *Sharded) Extract(now int64, emit func(record.Record)) int {
	if len(sh.shards) == 1 {
		shd := sh.shards[0]
		shd.mu.Lock()
		before := shd.s.buffered
		n := shd.s.Extract(now, emit)
		sh.agg.Add(int64(shd.s.buffered - before))
		shd.mu.Unlock()
		return n
	}
	for i, shd := range sh.shards {
		shd.mu.Lock()
		shd.s.decay(now)
		before := shd.s.buffered
		shd.s.extract(now, nil, &sh.runs[i])
		sh.agg.Add(int64(shd.s.buffered - before))
		shd.mu.Unlock()
	}
	n := sh.mergeRuns(emit)
	if n == 0 && sh.agg.Load() > 0 {
		sh.stalls.Add(1)
	}
	return n
}

// Flush emits everything still buffered, in merged order, ignoring T.
// Like Sorter.Flush it bypasses decay, so the learned time frames
// survive a mid-stream flush intact.
func (sh *Sharded) Flush(emit func(record.Record)) int {
	if len(sh.shards) == 1 {
		shd := sh.shards[0]
		shd.mu.Lock()
		before := shd.s.buffered
		n := shd.s.Flush(emit)
		sh.agg.Add(int64(shd.s.buffered - before))
		shd.mu.Unlock()
		return n
	}
	for i, shd := range sh.shards {
		shd.mu.Lock()
		before := shd.s.buffered
		shd.s.extract(math.MaxInt64, nil, &sh.runs[i])
		sh.agg.Add(int64(shd.s.buffered - before))
		shd.mu.Unlock()
	}
	return sh.mergeRuns(emit)
}

// mergeRuns drains the staged per-shard runs — each already in
// timestamp order — through the loser tree, emitting the global
// minimum-timestamp head until every run is exhausted. Runs alias no
// shard storage, so no shard lock is held while emit runs.
func (sh *Sharded) mergeRuns(emit func(record.Record)) int {
	k := len(sh.runs)
	sh.lt.build(k, sh.runWins)
	n := 0
	for {
		w := sh.lt.winner()
		if w < 0 {
			break
		}
		ru := &sh.runs[w]
		r := ru.head()
		if r == nil {
			break
		}
		sh.gLastTS.Store(r.TS)
		sh.gLastSrc.Store(r.Node)
		sh.gEmitted.Store(true)
		ru.next++
		emit(*r)
		n++
		sh.lt.adjust(w, sh.runWins)
	}
	for i := range sh.runs {
		sh.runs[i].reset()
	}
	return n
}

// runWins reports whether run a's head sorts before run b's head.
// Exhausted runs (and the -1 sentinel) always lose; timestamp ties
// break by shard index so the merge order is deterministic.
func (sh *Sharded) runWins(a, b int) bool {
	if a < 0 {
		return false
	}
	if b < 0 {
		return true
	}
	ra := sh.runs[a].head()
	rb := sh.runs[b].head()
	if ra == nil {
		return false
	}
	if rb == nil {
		return true
	}
	if ra.TS != rb.TS {
		return ra.TS < rb.TS
	}
	return a < b
}

// Buffered returns the aggregate number of records delayed in memory
// across all shards.
func (sh *Sharded) Buffered() int { return int(sh.agg.Load()) }

// MergeStalls counts Extract passes (with shards > 1) that emitted
// nothing while records were buffered — every shard's head still inside
// its delay window.
func (sh *Sharded) MergeStalls() uint64 { return sh.stalls.Load() }

// Stats aggregates the per-shard counters: sums for the flow counters,
// max for GrownTo, and a union of the per-source drop maps.
func (sh *Sharded) Stats() Stats {
	var st Stats
	for _, shd := range sh.shards {
		shd.mu.Lock()
		s := shd.s.Stats()
		shd.mu.Unlock()
		st.Pushed += s.Pushed
		st.Emitted += s.Emitted
		st.Inversions += s.Inversions
		st.DroppedFull += s.DroppedFull
		if s.GrownTo > st.GrownTo {
			st.GrownTo = s.GrownTo
		}
		for src, n := range s.SourceDrops {
			if st.SourceDrops == nil {
				st.SourceDrops = make(map[int32]uint64)
			}
			st.SourceDrops[src] += n
		}
	}
	return st
}

// TimeFrame returns the largest current time frame across shards — the
// bound on how long any record is delayed.
func (sh *Sharded) TimeFrame() int64 {
	var max int64
	for _, shd := range sh.shards {
		shd.mu.Lock()
		t := shd.s.TimeFrame()
		shd.mu.Unlock()
		if t > max {
			max = t
		}
	}
	return max
}

// ShardStats returns shard i's counters.
func (sh *Sharded) ShardStats(i int) Stats {
	shd := sh.shards[i]
	shd.mu.Lock()
	defer shd.mu.Unlock()
	return shd.s.Stats()
}

// ShardTimeFrame returns shard i's current time frame T in µs.
func (sh *Sharded) ShardTimeFrame(i int) int64 {
	shd := sh.shards[i]
	shd.mu.Lock()
	defer shd.mu.Unlock()
	return shd.s.TimeFrame()
}

// ShardBuffered returns the number of records shard i has delayed.
func (sh *Sharded) ShardBuffered(i int) int {
	shd := sh.shards[i]
	shd.mu.Lock()
	defer shd.mu.Unlock()
	return shd.s.Buffered()
}

// BufferedBySource returns the number of records the given source has
// delayed in memory.
func (sh *Sharded) BufferedBySource(src int32) int {
	shd := sh.shards[sh.shardFor(src)]
	shd.mu.Lock()
	defer shd.mu.Unlock()
	return shd.s.BufferedBySource(src)
}

// TakeLosses drains every shard's per-source drop accumulators, as
// Sorter.TakeLosses. fn runs with the shard lock held.
func (sh *Sharded) TakeLosses(fn func(src int32, count uint64, firstTS, lastTS int64)) {
	for _, shd := range sh.shards {
		shd.mu.Lock()
		shd.s.TakeLosses(fn)
		shd.mu.Unlock()
	}
}

// DropsBySource calls fn for every source that has dropped records, as
// Sorter.DropsBySource. fn runs with the shard lock held.
func (sh *Sharded) DropsBySource(fn func(src int32, dropped uint64)) {
	for _, shd := range sh.shards {
		shd.mu.Lock()
		shd.s.DropsBySource(fn)
		shd.mu.Unlock()
	}
}

// NextDeadline returns the earliest manager time at which any shard's
// oldest buffered record becomes emittable, and false when nothing is
// buffered anywhere.
func (sh *Sharded) NextDeadline() (int64, bool) {
	var best int64
	ok := false
	for _, shd := range sh.shards {
		shd.mu.Lock()
		d, has := shd.s.NextDeadline()
		shd.mu.Unlock()
		if has && (!ok || d < best) {
			best, ok = d, true
		}
	}
	return best, ok
}

// mergeRun is one shard's staging area for a merge pass: records in
// shard-emission (timestamp) order, consumed head-first by the loser
// tree. Slots are reused across passes, so the Fields arrays parked in
// them by previous passes are handed back to shard queue slots as the
// swap currency of Sorter.extract.
type mergeRun struct {
	recs []record.Record
	next int
}

// put appends r to the run, taking ownership of r.Fields, and returns
// the Fields array displaced from the reused slot for the caller to
// park in the queue slot r came from.
func (ru *mergeRun) put(r record.Record) []record.Value {
	if len(ru.recs) < cap(ru.recs) {
		ru.recs = ru.recs[:len(ru.recs)+1]
	} else {
		ru.recs = append(ru.recs, record.Record{})
	}
	slot := &ru.recs[len(ru.recs)-1]
	spare := slot.Fields[:0]
	*slot = r
	return spare
}

// head returns the next unconsumed record, or nil when the run is
// exhausted.
func (ru *mergeRun) head() *record.Record {
	if ru.next >= len(ru.recs) {
		return nil
	}
	return &ru.recs[ru.next]
}

// reset empties the run for the next pass, keeping slot storage (and
// the Fields arrays it holds) for reuse. The just-emitted records stay
// readable until the next pass overwrites them, which is the borrow
// window Extract documents.
func (ru *mergeRun) reset() { ru.recs = ru.recs[:0]; ru.next = 0 }

// loserTree is a tournament tree over k merge runs. node[0] holds the
// overall winner; node[1..k-1] hold the loser of the match played at
// that internal node. Leaf i's parent is node[(i+k)/2]. Replaying a
// single leaf-to-root path after the winner advances costs ⌈log₂ k⌉
// comparisons, against k−1 for rescanning heads.
type loserTree struct {
	k    int
	node []int
}

// build initializes the tree over k runs using wins(a, b) — "run a's
// head sorts before run b's" — seeding matches bottom-up.
func (t *loserTree) build(k int, wins func(a, b int) bool) {
	t.k = k
	if cap(t.node) < k {
		t.node = make([]int, k)
	}
	t.node = t.node[:k]
	for i := range t.node {
		t.node[i] = -1
	}
	for i := k - 1; i >= 0; i-- {
		t.seed(i, wins)
	}
}

// seed plays run r up the tree during build. The first run to reach an
// empty internal node parks there and waits for its opponent.
func (t *loserTree) seed(r int, wins func(a, b int) bool) {
	w := r
	for p := (r + t.k) / 2; p > 0; p /= 2 {
		if t.node[p] == -1 {
			t.node[p] = w
			return
		}
		if wins(t.node[p], w) {
			w, t.node[p] = t.node[p], w
		}
	}
	t.node[0] = w
}

// adjust replays the path from leaf r to the root after run r (the
// previous winner) advanced its head, restoring the loser-tree
// invariant.
func (t *loserTree) adjust(r int, wins func(a, b int) bool) {
	w := r
	for p := (r + t.k) / 2; p > 0; p /= 2 {
		if wins(t.node[p], w) {
			w, t.node[p] = t.node[p], w
		}
	}
	t.node[0] = w
}

// winner returns the run index holding the global minimum head, or -1.
func (t *loserTree) winner() int { return t.node[0] }
