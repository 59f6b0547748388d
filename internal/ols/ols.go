// Package ols implements the manager's dynamic on-line sorting algorithm.
//
// The ISM receives in-order record streams from each external sensor and
// must merge them into one stream ordered by synchronized timestamp. Per
// the paper: using the embedded time-stamps, its current time and a
// user-specified time frame T, the ISM delays each record for T time
// units after its creation; if two successive records from different
// external sensors are extracted out of order, it increases the time
// frame; then it exponentially decreases the time frame to reduce the
// amount of instrumentation data delayed in memory. The method trades
// event ordering against latency.
//
// # The sorter core
//
// Each source's records wait in a FIFO queue in arrival order, and the
// queue heads are merged through a min-heap ordered by (TS, Seq) — the
// paper's heap-based sorter, O(log n_sources) per record. Extraction
// pops aged heads (now − TS ≥ T) off the heap until the oldest head is
// still inside the window.
//
// # Adaptive window, quota and loss accounting
//
// Around the heap sit the adaptive time frame T (grown per GrowPolicy on
// observed inversions, exponentially decayed toward MinT with half-life
// HalfLife), the MaxBuffered global bound and per-source SourceQuota with
// drop-newest accounting, and the per-source loss accumulators drained by
// TakeLosses that let the ISM synthesize loss-marker records — markers
// themselves are exempt from the bounds. Per-source FIFO order is always
// preserved: one source's records leave its queue in push order.
package ols

import (
	"math"

	"brisk/internal/record"
)

// GrowPolicy selects how the time frame grows when an inversion is
// detected.
type GrowPolicy int

const (
	// GrowToLateness sets T to the latest late event's lateness — the
	// strategy the paper's evaluation found best for latency-critical
	// applications.
	GrowToLateness GrowPolicy = iota
	// GrowDouble doubles T on each inversion.
	GrowDouble
	// GrowFixed never adapts T (the ablation baseline).
	GrowFixed
)

// String names the policy.
func (p GrowPolicy) String() string {
	switch p {
	case GrowToLateness:
		return "lateness"
	case GrowDouble:
		return "double"
	case GrowFixed:
		return "fixed"
	default:
		return "GrowPolicy(?)"
	}
}

// Config holds the sorter's tuning knobs.
type Config struct {
	// InitialT is the starting time frame in µs. Default 1000.
	InitialT int64
	// MinT is the floor T decays toward. Default 0.
	MinT int64
	// MaxT caps growth. Default 10 s.
	MaxT int64
	// HalfLife is the exponential-decay half-life of (T − MinT) in µs of
	// manager time; 0 disables decay. The paper: "a small exponent
	// constant for reducing T (i.e., a large T half-life) helps" in
	// non-latency-critical applications.
	HalfLife int64
	// Grow selects the growth rule applied on inversions.
	Grow GrowPolicy
	// MaxBuffered bounds the records delayed in memory; pushes beyond it
	// are dropped and counted (the ISM's event dropping under overload).
	// 0 means unbounded.
	MaxBuffered int
	// SourceQuota bounds the records any single source may have delayed
	// in memory, so one hot sensor cannot consume the whole MaxBuffered
	// budget and force drops onto quiet sensors. 0 means no per-source
	// bound.
	SourceQuota int
}

func (c Config) withDefaults() Config {
	if c.InitialT <= 0 {
		c.InitialT = 1000
	}
	if c.MaxT <= 0 {
		c.MaxT = 10_000_000
	}
	if c.MinT < 0 {
		c.MinT = 0
	}
	if c.InitialT > c.MaxT {
		c.InitialT = c.MaxT
	}
	return c
}

// Stats counts the sorter's observable behaviour.
type Stats struct {
	// Pushed and Emitted count records in and out.
	Pushed, Emitted uint64
	// Inversions counts records that arrived after a later-stamped
	// record from another source had already been emitted — exactly the
	// out-of-order condition the adaptive rule reacts to.
	Inversions uint64
	// DroppedFull counts records dropped because MaxBuffered or the
	// per-source quota was hit.
	DroppedFull uint64
	// SourceDrops attributes every DroppedFull record to the source that
	// lost it. nil until the first drop; the map is freshly built per
	// Stats call, so callers may retain it.
	SourceDrops map[int32]uint64
	// GrownTo is the largest T ever reached.
	GrownTo int64
	// HeapFallbacks and CalendarRebuilds are always 0: the sorter has one
	// core, the heap, and neither a fallback nor a ring to rebuild. They
	// remain for readers that still report them.
	HeapFallbacks, CalendarRebuilds uint64
}

// Sorter merges per-source record streams into timestamp order. Not safe
// for concurrent use; the ISM's single merger goroutine owns it.
type Sorter struct {
	cfg      Config
	t        float64 // current time frame, µs
	lastSeen int64   // manager time at last Extract, for decay
	buffered int

	lastTS  int64 // timestamp of the most recently emitted record
	lastSrc int32
	emitted bool

	queues map[int32]*srcQueue
	h      srcHeap // the non-empty queues, by head (TS, Seq)
	seq    uint64

	lossPending int // sources with unharvested drop accumulators

	// orderRef, when set, supplies the emission frontier Push checks for
	// inversions instead of the sorter's own lastTS/lastSrc. A Sharded
	// wrapper points every shard here at the merged stream's frontier, so
	// a record late with respect to the *global* output still grows its
	// shard's T even when its own shard has emitted nothing newer.
	orderRef func() (lastTS int64, lastSrc int32, emitted bool)
	// occRef, when set, supplies the occupancy the MaxBuffered bound is
	// enforced against instead of this sorter's own buffered count. A
	// Sharded wrapper points every shard at the aggregate, keeping
	// MaxBuffered a global budget rather than a per-shard one.
	occRef func() int

	stats Stats
}

// New returns a sorter with the given configuration.
func New(cfg Config) *Sorter {
	cfg = cfg.withDefaults()
	return &Sorter{
		cfg:    cfg,
		t:      float64(cfg.InitialT),
		queues: make(map[int32]*srcQueue),
	}
}

// TimeFrame returns the current time frame T in µs.
func (s *Sorter) TimeFrame() int64 { return int64(s.t) }

// Buffered returns the number of records currently delayed in memory.
func (s *Sorter) Buffered() int { return s.buffered }

// Stats returns a copy of the counters.
func (s *Sorter) Stats() Stats {
	st := s.stats
	if st.DroppedFull > 0 {
		st.SourceDrops = make(map[int32]uint64)
		for src, q := range s.queues {
			if q.dropped > 0 {
				st.SourceDrops[src] = q.dropped
			}
		}
	}
	return st
}

// BufferedBySource returns the number of records the given source has
// delayed in memory.
func (s *Sorter) BufferedBySource(src int32) int {
	if q, ok := s.queues[src]; ok {
		return q.buffered
	}
	return 0
}

// DropsBySource calls fn for every source that has dropped records, with
// its cumulative drop count. Allocation-free, for metric reconciliation.
func (s *Sorter) DropsBySource(fn func(src int32, dropped uint64)) {
	if s.stats.DroppedFull == 0 {
		return
	}
	for src, q := range s.queues {
		if q.dropped > 0 {
			fn(src, q.dropped)
		}
	}
}

// TakeLosses drains the per-source drop accumulators: for every source
// that has dropped records since the previous call, fn receives the
// dropped count and the covered timestamp range, and the accumulator
// resets. The ISM merger uses this to synthesize loss-marker records.
// Allocation-free, and O(1) when nothing has been dropped.
func (s *Sorter) TakeLosses(fn func(src int32, count uint64, firstTS, lastTS int64)) {
	if s.lossPending == 0 {
		return
	}
	for src, q := range s.queues {
		if q.lossCount == 0 {
			continue
		}
		fn(src, q.lossCount, q.lossFirst, q.lossLast)
		q.lossCount, q.lossFirst, q.lossLast = 0, 0, 0
	}
	s.lossPending = 0
}

// Push enqueues one record from a source. now is the manager clock (µs),
// used to measure the record's lateness when it arrives behind the
// merged stream. Records without a timestamp are stamped with now so they
// flow through rather than stall the merge.
//
// Push deep-copies rec, including its Fields, into a slot of the source's
// queue: the caller
// may recycle rec.Fields (a pooled decode batch, say) as soon as Push
// returns. The copy reuses the slot's previous Fields array, so
// steady-state pushes do not allocate.
//
// A push beyond MaxBuffered or the source's quota is dropped (drop-newest)
// and accounted to the source in Stats.SourceDrops and in the loss
// accumulator drained by TakeLosses. Loss-marker records are exempt from
// both bounds: a marker documents drops that already happened, so dropping
// it would reopen the silent-loss hole the marker exists to close.
func (s *Sorter) Push(src int32, rec record.Record, now int64) {
	s.stats.Pushed++
	q, ok := s.queues[src]
	if !ok {
		q = &srcQueue{src: src}
		s.queues[src] = q
	}
	marker := rec.Event == record.LossEvent && record.IsLossMarker(&rec)
	if !marker {
		occ := s.buffered
		if s.occRef != nil {
			occ = s.occRef()
		}
		full := s.cfg.MaxBuffered > 0 && occ >= s.cfg.MaxBuffered
		overQuota := s.cfg.SourceQuota > 0 && q.buffered >= s.cfg.SourceQuota
		if full || overQuota {
			s.stats.DroppedFull++
			q.dropped++
			ts := now
			if rec.HasTS {
				ts = rec.TS
			}
			if q.lossCount == 0 {
				q.lossFirst, q.lossLast = ts, ts
				s.lossPending++
			} else {
				if ts < q.lossFirst {
					q.lossFirst = ts
				}
				if ts > q.lossLast {
					q.lossLast = ts
				}
			}
			q.lossCount++
			return
		}
	}
	if !rec.HasTS {
		rec.SetTS(now)
	}
	rec.Node = src
	s.seq++
	rec.Seq = s.seq

	// Inversion check: the record is already behind the emitted stream.
	// Loss markers are exempt — they are synthetic and deliberately stamped
	// inside the gap they describe, so their lateness must not inflate T.
	lastTS, lastSrc, emitted := s.lastTS, s.lastSrc, s.emitted
	if s.orderRef != nil {
		lastTS, lastSrc, emitted = s.orderRef()
	}
	if !marker && emitted && rec.TS < lastTS && src != lastSrc {
		s.stats.Inversions++
		s.grow(now - rec.TS)
	}

	wasEmpty := q.empty()
	q.push(rec)
	q.buffered++
	s.buffered++
	// A record appended behind an existing head leaves the queue's heap
	// key unchanged; only a queue that was empty joins the heap.
	if wasEmpty {
		s.h.push(q)
	}
}

// grow raises T according to the configured policy. lateness is how long
// the offending record would have needed to be delayed to stay in order.
func (s *Sorter) grow(lateness int64) {
	switch s.cfg.Grow {
	case GrowToLateness:
		if float64(lateness) > s.t {
			s.t = float64(lateness)
		}
	case GrowDouble:
		s.t *= 2
	case GrowFixed:
		// No adaptation.
	}
	if s.t > float64(s.cfg.MaxT) {
		s.t = float64(s.cfg.MaxT)
	}
	if int64(s.t) > s.stats.GrownTo {
		s.stats.GrownTo = int64(s.t)
	}
}

// decay applies the exponential reduction of T for elapsed manager time.
func (s *Sorter) decay(now int64) {
	if s.cfg.HalfLife <= 0 {
		s.lastSeen = now
		return
	}
	dt := now - s.lastSeen
	s.lastSeen = now
	if dt <= 0 {
		return
	}
	min := float64(s.cfg.MinT)
	s.t = min + (s.t-min)*math.Exp2(-float64(dt)/float64(s.cfg.HalfLife))
	if s.t < min {
		s.t = min
	}
}

// Extract emits, in merged timestamp order, every buffered record that has
// aged at least T (now − TS ≥ T). It returns the number emitted. The
// record passed to emit borrows its Fields from the queue slot that held
// it, which a later Push into the sorter reuses: it is valid as given
// only until the next Push or Extract call. A callee retaining records
// beyond that window must record.Detach them.
func (s *Sorter) Extract(now int64, emit func(record.Record)) int {
	s.decay(now)
	return s.extract(now, emit, nil)
}

// extract pops aged queue heads in (TS, Seq) order until the oldest head
// is still inside the window. Each popped record goes to emit, or, when
// dst is non-nil (a staged shard, see Sharded.Extract), moves into dst
// owning its Fields array outright while the vacated queue slot takes a
// recycled array from dst in exchange. The staged records therefore
// stay valid after the shard lock is released — a concurrent Push
// reusing the slot writes into the swapped-in spare — and both queue and
// staging storage stay allocation-free in steady state.
func (s *Sorter) extract(now int64, emit func(record.Record), dst *mergeRun) int {
	n := 0
	// Aged means now − TS ≥ T, written as TS ≤ now − T so that Flush's
	// now of MaxInt64 cannot overflow against a negative timestamp.
	horizon := now - int64(s.t)
	for len(s.h) > 0 {
		q := s.h[0]
		slot := q.head()
		if slot.TS > horizon {
			break
		}
		rec := *slot
		if dst != nil {
			slot.Fields = dst.put(rec)
		}
		q.pop()
		q.buffered--
		s.buffered--
		if q.empty() {
			s.h.popTop()
		} else {
			s.h.down(0)
		}
		s.lastTS = rec.TS
		s.lastSrc = q.src
		s.emitted = true
		s.stats.Emitted++
		n++
		if dst == nil {
			emit(rec)
		}
	}
	return n
}

// Flush emits everything still buffered, in merged order, ignoring T. Used
// at shutdown and when a caller needs the pipeline drained mid-stream.
// Flush bypasses decay: it does not touch lastSeen or shrink T, so the
// learned time frame survives a mid-stream flush intact. (Routing Flush
// through Extract(math.MaxInt64, …) would make decay see a near-infinite
// elapsed time, collapse T to MinT and poison lastSeen for every
// subsequent Extract.)
func (s *Sorter) Flush(emit func(record.Record)) int {
	return s.extract(math.MaxInt64, emit, nil)
}

// NextDeadline returns the manager time at which the oldest buffered
// record becomes emittable, and false when nothing is buffered. The ISM
// merger uses it to sleep precisely instead of polling.
func (s *Sorter) NextDeadline() (int64, bool) {
	if len(s.h) == 0 {
		return 0, false
	}
	return s.h[0].head().TS + int64(s.t), true
}

// srcQueue is one source's FIFO with an amortized head index, and the
// source's accounting record: buffered count, quota and loss
// accumulators.
type srcQueue struct {
	src  int32
	recs []record.Record
	hd   int

	buffered int    // live records in this queue
	dropped  uint64 // cumulative records dropped at a buffer bound

	// Unharvested loss accumulator (drained by TakeLosses): how many
	// records dropped since the last harvest and the timestamp range they
	// covered.
	lossCount           uint64
	lossFirst, lossLast int64
}

func (q *srcQueue) empty() bool          { return q.hd >= len(q.recs) }
func (q *srcQueue) head() *record.Record { return &q.recs[q.hd] }

// push deep-copies r into the tail slot, reusing the slot's previous
// Fields array so a queue in steady state never allocates.
func (q *srcQueue) push(r record.Record) {
	// Compact once the dead prefix dominates. The live record moving into
	// slot i still aliases the Fields array sitting in its old slot hd+i,
	// so that slot must not keep it; park the dead record i's array there
	// instead (it was emitted, its borrow window is over), which keeps
	// every slot's storage reusable and compaction allocation-free.
	if q.hd > 64 && q.hd*2 > len(q.recs) {
		n := len(q.recs) - q.hd
		for i := 0; i < n; i++ {
			free := q.recs[i].Fields[:0]
			q.recs[i] = q.recs[q.hd+i]
			q.recs[q.hd+i] = record.Record{Fields: free}
		}
		q.recs = q.recs[:n]
		q.hd = 0
	}
	if len(q.recs) < cap(q.recs) {
		q.recs = q.recs[:len(q.recs)+1]
	} else {
		q.recs = append(q.recs, record.Record{})
	}
	slot := &q.recs[len(q.recs)-1]
	fields := slot.Fields[:0]
	*slot = r
	slot.Fields = append(fields, r.Fields...)
}

// pop removes the head record. The slot — including the Fields array
// the popped record aliases — is left in place for a later push to
// reuse, which is what bounds Extract's borrowing window.
func (q *srcQueue) pop() {
	q.hd++
	if q.empty() {
		q.recs = q.recs[:0]
		q.hd = 0
	}
}

// srcHeap is a binary min-heap of the non-empty source queues, ordered
// by their head records' (TS, Seq). Seq is unique per sorter, so the
// order is total and the emission sequence does not depend on the
// heap's shape.
type srcHeap []*srcQueue

// before reports whether queue a's head sorts before queue b's.
func before(a, b *srcQueue) bool {
	x, y := a.head(), b.head()
	return x.TS < y.TS || (x.TS == y.TS && x.Seq < y.Seq)
}

// push adds a queue that just became non-empty.
func (h *srcHeap) push(q *srcQueue) {
	*h = append(*h, q)
	hp := *h
	for i := len(hp) - 1; i > 0; {
		p := (i - 1) / 2
		if !before(hp[i], hp[p]) {
			break
		}
		hp[i], hp[p] = hp[p], hp[i]
		i = p
	}
}

// down restores the heap below i after i's head key grew.
func (h srcHeap) down(i int) {
	n := len(h)
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if r := c + 1; r < n && before(h[r], h[c]) {
			c = r
		}
		if !before(h[c], h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// popTop removes the root, a queue that just drained empty.
func (h *srcHeap) popTop() {
	hp := *h
	n := len(hp) - 1
	hp[0] = hp[n]
	hp[n] = nil
	*h = hp[:n]
	if n > 0 {
		(*h).down(0)
	}
}
