package main

import (
	"fmt"
	"sync/atomic"

	"brisk/internal/record"
)

// Every generated record carries its logical source and a per-source
// sequence number (from 0, the set-up probe) as its first two int32
// fields. The checker reads them back at the consumer.

// keyOf returns a record's (source, seq) fields.
func keyOf(r *record.Record) (src, seq int32, ok bool) {
	found := 0
	for _, f := range r.Fields {
		if f.Type != record.Int32 {
			continue
		}
		if found == 0 {
			src = int32(f.Int())
		} else {
			return src, int32(f.Int()), true
		}
		found++
	}
	return 0, 0, false
}

func packKey(src, seq int32) uint64 { return uint64(uint32(src))<<32 | uint64(uint32(seq)) }

// subFilter is the checker's own statement of what a subscriber should
// receive; it is evaluated on the consumer stream independently of the
// subscription engine's filter.
type subFilter func(r *record.Record) bool

// checker validates the consumer stream as it is delivered. observe runs
// on the consumer goroutine only; delivered is read concurrently.
type checker struct {
	last  []int32        // last seq delivered per source, -1 before the first
	count []atomic.Int64 // data records delivered per source

	delivered atomic.Int64
	fifo      int    // records whose seq did not strictly increase (reorder or duplicate)
	unknown   int    // records without a valid (source, seq)
	maxTS     int64  // highest timestamp emitted so far
	disorder  uint64 // records emitted below an earlier record's timestamp
	reasons   map[uint64]struct{}
	conseqs   map[uint64]struct{} // keys of delivered consequences
	causal    int                 // consequences delivered before their reason
	marked    uint64              // records covered by loss markers in the stream

	filters []subFilter
	expect  [][]uint64 // per subscriber: the consumer stream through its filter
}

func newChecker(sources int, filters []subFilter) *checker {
	c := &checker{
		last:    make([]int32, sources),
		count:   make([]atomic.Int64, sources),
		maxTS:   -1 << 63,
		reasons: make(map[uint64]struct{}),
		conseqs: make(map[uint64]struct{}),
		filters: filters,
		expect:  make([][]uint64, len(filters)),
	}
	for i := range c.last {
		c.last[i] = -1
	}
	return c
}

// observe checks one delivered record and returns its key; ok is false
// for loss markers and unattributable records.
func (c *checker) observe(r *record.Record) (src, seq int32, ok bool) {
	if record.IsLossMarker(r) {
		n, _, _, _ := record.LossInfo(r)
		c.marked += n
		return 0, 0, false
	}
	src, seq, ok = keyOf(r)
	if !ok || src < 0 || int(src) >= len(c.last) {
		c.unknown++
		return 0, 0, false
	}
	switch {
	case r.Conseq != 0:
		// The causal matcher holds a consequence until its reason is
		// emitted, so consequences leave in reason order, not in their
		// own source's order: check them only for duplicates.
		k := packKey(src, seq)
		if _, dup := c.conseqs[k]; dup {
			c.fifo++
		}
		c.conseqs[k] = struct{}{}
		c.last[src] = max(c.last[src], seq)
	case seq <= c.last[src]:
		c.fifo++
	default:
		c.last[src] = seq
	}
	c.count[src].Add(1)
	c.delivered.Add(1)
	// The causal matcher re-stamps a consequence that precedes its
	// reason, so consequences are exempt from the timestamp order check.
	if r.Conseq == 0 {
		if r.TS < c.maxTS {
			c.disorder++
		} else {
			c.maxTS = r.TS
		}
	}
	if r.Reason != 0 {
		c.reasons[r.Reason] = struct{}{}
	}
	if r.Conseq != 0 {
		if _, seen := c.reasons[r.Conseq]; !seen {
			c.causal++
		}
	}
	for i, f := range c.filters {
		if f(r) {
			c.expect[i] = append(c.expect[i], packKey(src, seq))
		}
	}
	return src, seq, true
}

// seenAll reports whether every source has delivered at least up to seq.
func (c *checker) seenAll(seq int32) bool {
	for _, l := range c.last {
		if l < seq {
			return false
		}
	}
	return true
}

// accounting is what the pipeline reports about records it did not
// deliver, gathered after the run.
type accounting struct {
	issued      []int64 // records issued per source, probes included
	lapped      uint64  // records the consumer lost to buffer overrun
	ringRetried uint64  // ring refusals the producer retried; the external sensor still marks them lost
	sorterDrops uint64  // records dropped by sorter or relay bounds (must be marker-covered)
	inversions  uint64  // sorter-reported records that arrived later than the time frame T
}

// finish returns every violated contract; an empty slice means the
// stream passed.
func (c *checker) finish(a accounting) []string {
	var bad []string
	if c.fifo > 0 {
		bad = append(bad, fmt.Sprintf("per-source FIFO: %d records reordered or duplicated", c.fifo))
	}
	if c.unknown > 0 {
		bad = append(bad, fmt.Sprintf("%d delivered records carry no valid (source, seq)", c.unknown))
	}
	var issued, got int64
	for s := range c.count {
		n := c.count[s].Load()
		issued += a.issued[s]
		got += n
		if n > a.issued[s] {
			bad = append(bad, fmt.Sprintf("source %d: delivered %d of %d issued", s, n, a.issued[s]))
		}
	}
	// A refused notice that was retried is not lost, but the external
	// sensor counts every ring refusal in its loss markers.
	marked := int64(c.marked) - int64(a.ringRetried)
	if marked < 0 {
		bad = append(bad, fmt.Sprintf("loss markers cover %d records, fewer than the %d retried ring refusals", c.marked, a.ringRetried))
		marked = 0
	}
	counted := uint64(marked) + a.lapped
	if uint64(issued-got) != counted {
		bad = append(bad, fmt.Sprintf("conservation: issued %d, delivered %d, counted losses %d (markers %d less %d retried refusals, lapped %d)",
			issued, got, counted, c.marked, a.ringRetried, a.lapped))
	}
	if uint64(marked) < a.sorterDrops {
		bad = append(bad, fmt.Sprintf("loss markers cover %d records but the sorters dropped %d", marked, a.sorterDrops))
	}
	// The sorter may emit out of timestamp order only a record that
	// arrived later than its time frame T, which it reports as an
	// inversion; with none reported the stream must be monotone.
	if c.disorder > 0 && a.inversions == 0 {
		bad = append(bad, fmt.Sprintf("emission order: %d records below an earlier timestamp, but no record arrived later than T",
			c.disorder))
	}
	if c.causal > 0 {
		bad = append(bad, fmt.Sprintf("causality: %d consequences delivered before their reason", c.causal))
	}
	return bad
}

// compareSub checks one subscriber's stream against the consumer stream
// through the same filter. Per source, the subscriber must receive the
// consumer's records in the consumer's order; every record it misses must
// be covered by its own loss markers, which may over-cover (a read-side
// marker reports the whole evicted range) but never under-cover. Across
// sources it must also follow the consumer's (global emission) order;
// orderBreaks counts the records that arrive behind a record the consumer
// delivered after them.
func compareSub(name string, want, got []uint64, dropped uint64) (problem string, orderBreaks int) {
	if len(got) > len(want) || uint64(len(want)-len(got)) > dropped {
		return fmt.Sprintf("subscriber %s: %d records + %d marked dropped, consumer through its filter has %d",
			name, len(got), dropped, len(want)), 0
	}
	pos := make(map[uint64]int, len(want))
	for i, k := range want {
		pos[k] = i
	}
	lastPos := map[uint32]int{}
	maxPos := -1
	for _, k := range got {
		p, ok := pos[k]
		if !ok {
			return fmt.Sprintf("subscriber %s: record %d/%d is not in the consumer stream", name, k>>32, uint32(k)), 0
		}
		src := uint32(k >> 32)
		if last, seen := lastPos[src]; seen && p <= last {
			return fmt.Sprintf("subscriber %s: source %d seq %d out of the consumer's order", name, src, uint32(k)), 0
		}
		lastPos[src] = p
		if p < maxPos {
			orderBreaks++
		} else {
			maxPos = p
		}
	}
	return "", orderBreaks
}
