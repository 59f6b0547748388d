package ols

import (
	"math/rand"
	"testing"
	"testing/quick"

	"brisk/internal/record"
)

// streamModel is a randomized multi-source arrival schedule that respects
// the transport invariant (per-source delivery is in creation order).
type streamModel struct {
	arrivals []arrival
	maxLate  int64
}

// genStream derives a schedule from quick's random values.
func genStream(rng *rand.Rand, sources, perSource int, maxDelay int64) streamModel {
	var m streamModel
	for src := int32(1); src <= int32(sources); src++ {
		ts := int64(0)
		prevAt := int64(0)
		for i := 0; i < perSource; i++ {
			ts += 1 + rng.Int63n(100)
			at := ts + rng.Int63n(maxDelay+1)
			if at < prevAt {
				at = prevAt
			}
			prevAt = at
			if late := at - ts; late > m.maxLate {
				m.maxLate = late
			}
			m.arrivals = append(m.arrivals, arrival{src, rec(ts), at})
		}
	}
	sortByAt(m.arrivals)
	return m
}

// TestPropertySortedWhenTCoversLateness: for any schedule whose maximum
// lateness is at most T, the sorter's output is globally non-decreasing
// in timestamp and nothing is lost.
func TestPropertySortedWhenTCoversLateness(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		maxDelay := 1 + rng.Int63n(2000)
		m := genStream(rng, 1+rng.Intn(6), 50+rng.Intn(100), maxDelay)
		s := New(Config{InitialT: m.maxLate + 1, Grow: GrowFixed})
		var out []int64
		for _, a := range m.arrivals {
			s.Push(a.src, a.r, a.at)
			s.Extract(a.at, func(r record.Record) { out = append(out, r.TS) })
		}
		s.Flush(func(r record.Record) { out = append(out, r.TS) })
		if len(out) != len(m.arrivals) {
			return false
		}
		for i := 1; i < len(out); i++ {
			if out[i] < out[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyNothingLostAnyPolicy: whatever the policy and schedule, all
// pushed records are eventually emitted exactly once (no duplication, no
// loss) and per-source order is preserved.
func TestPropertyNothingLostAnyPolicy(t *testing.T) {
	f := func(seed int64, policyPick uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m := genStream(rng, 1+rng.Intn(5), 30+rng.Intn(80), 1+rng.Int63n(5000))
		policy := []GrowPolicy{GrowToLateness, GrowDouble, GrowFixed}[int(policyPick)%3]
		s := New(Config{InitialT: 1 + rng.Int63n(500), Grow: policy,
			HalfLife: rng.Int63n(10_000)})
		perSourceLast := map[int32]int64{}
		count := 0
		check := func(r record.Record) {
			count++
			if last, ok := perSourceLast[r.Node]; ok && r.TS < last {
				t.Errorf("per-source order violated for %d", r.Node)
			}
			perSourceLast[r.Node] = r.TS
		}
		for _, a := range m.arrivals {
			s.Push(a.src, a.r, a.at)
			s.Extract(a.at, check)
		}
		s.Flush(check)
		return count == len(m.arrivals) && s.Buffered() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyTimeFrameBounded: under any schedule T never exceeds MaxT
// and never decays below MinT.
func TestPropertyTimeFrameBounded(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := genStream(rng, 3, 100, 50_000)
		cfg := Config{InitialT: 50, MinT: 10, MaxT: 5_000,
			HalfLife: 1000, Grow: GrowDouble}
		s := New(cfg)
		for _, a := range m.arrivals {
			s.Push(a.src, a.r, a.at)
			s.Extract(a.at, func(record.Record) {})
			if tf := s.TimeFrame(); tf > cfg.MaxT || tf < cfg.MinT {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyEmittedOnlyWhenAged: no record is ever emitted younger than
// the time frame in force at extraction (latency floor is honoured).
func TestPropertyEmittedOnlyWhenAged(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := genStream(rng, 4, 60, 1000)
		s := New(Config{InitialT: 700, Grow: GrowFixed})
		ok := true
		for _, a := range m.arrivals {
			s.Push(a.src, a.r, a.at)
			now := a.at
			s.Extract(now, func(r record.Record) {
				if now-r.TS < 700 {
					ok = false
				}
			})
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// adversarialStream builds on genStream's random schedules and injects the
// arrivals that defeat naive sorters: stragglers delayed far beyond the
// schedule's bounded skew, and tachyon-style records whose timestamps sit
// in the future of their own arrival (a slave clock running fast). Each
// record carries a unique identity field so conservation can be checked as
// a multiset, not just a count.
func genAdversarial(rng *rand.Rand, sources, perSource int) (streamModel, map[uint64]int) {
	m := genStream(rng, sources, perSource, 1+rng.Int63n(1500))
	// Stragglers: a handful of records arrive much later than any skew
	// bound promised (their source stalls, then floods).
	for i := range m.arrivals {
		if rng.Intn(20) == 0 {
			m.arrivals[i].at += 10_000 + rng.Int63n(50_000)
			if late := m.arrivals[i].at - m.arrivals[i].r.TS; late > m.maxLate {
				m.maxLate = late
			}
		}
	}
	// Tachyons: some records are stamped ahead of the manager clock at
	// arrival time. Keep per-source TS monotone (the transport invariant)
	// by pushing the whole suffix of that source forward.
	for src := int32(1); src <= int32(sources); src++ {
		if rng.Intn(2) == 0 {
			continue
		}
		bump := int64(0)
		for i := range m.arrivals {
			if m.arrivals[i].src != src {
				continue
			}
			if bump == 0 && rng.Intn(perSource/2+1) == 0 {
				bump = 5_000 + rng.Int63n(20_000)
			}
			m.arrivals[i].r.SetTS(m.arrivals[i].r.TS + bump)
		}
	}
	// Re-establish per-source arrival order, then global arrival order,
	// and recompute the true lateness bound afterwards (the fixup can only
	// delay arrivals, never hasten them).
	last := map[int32]int64{}
	m.maxLate = 0
	for i := range m.arrivals {
		if m.arrivals[i].at < last[m.arrivals[i].src] {
			m.arrivals[i].at = last[m.arrivals[i].src]
		}
		last[m.arrivals[i].src] = m.arrivals[i].at
		if late := m.arrivals[i].at - m.arrivals[i].r.TS; late > m.maxLate {
			m.maxLate = late
		}
	}
	sortByAt(m.arrivals)
	// Stamp identities and build the input multiset.
	in := make(map[uint64]int, len(m.arrivals))
	for i := range m.arrivals {
		id := uint64(i + 1)
		m.arrivals[i].r.Fields = append(m.arrivals[i].r.Fields, record.U64Val(id))
		in[key(m.arrivals[i].src, m.arrivals[i].r.TS, id)]++
	}
	return m, in
}

func key(src int32, ts int64, id uint64) uint64 {
	return uint64(src)<<56 ^ uint64(ts)<<16 ^ id
}

// TestPropertyAdversarialMultisetConserved: under stragglers and tachyons,
// whatever the policy, the sorter neither loses nor duplicates a record —
// output is multiset-equal to input (source, timestamp, and identity all
// included in the key) — and per-source FIFO order survives.
func TestPropertyAdversarialMultisetConserved(t *testing.T) {
	f := func(seed int64, policyPick uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m, in := genAdversarial(rng, 1+rng.Intn(6), 40+rng.Intn(80))
		policy := []GrowPolicy{GrowToLateness, GrowDouble, GrowFixed}[int(policyPick)%3]
		s := New(Config{InitialT: 1 + rng.Int63n(500), Grow: policy,
			HalfLife: rng.Int63n(10_000)})
		out := make(map[uint64]int, len(in))
		perSourceLast := map[int32]int64{}
		emit := func(r record.Record) {
			id := r.Fields[len(r.Fields)-1].Uint()
			out[key(r.Node, r.TS, id)]++
			if last, ok := perSourceLast[r.Node]; ok && r.TS < last {
				t.Errorf("per-source order violated for source %d", r.Node)
			}
			perSourceLast[r.Node] = r.TS
		}
		for _, a := range m.arrivals {
			s.Push(a.src, a.r, a.at)
			s.Extract(a.at, emit)
		}
		s.Flush(emit)
		if len(out) != len(in) {
			return false
		}
		for k, n := range in {
			if out[k] != n {
				t.Errorf("key %x: in %d, out %d (lost or duplicated)", k, n, out[k])
				return false
			}
		}
		return s.Buffered() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyAdversarialMonotoneWhenTCovers: when the configured time
// frame covers even the adversarial lateness, the emission stream is
// globally non-decreasing in timestamp — stragglers and tachyons included.
func TestPropertyAdversarialMonotoneWhenTCovers(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, in := genAdversarial(rng, 1+rng.Intn(5), 30+rng.Intn(60))
		s := New(Config{InitialT: m.maxLate + 1, Grow: GrowFixed})
		var lastTS int64
		n := 0
		ok := true
		emit := func(r record.Record) {
			if n > 0 && r.TS < lastTS {
				ok = false
			}
			lastTS = r.TS
			n++
		}
		for _, a := range m.arrivals {
			s.Push(a.src, a.r, a.at)
			s.Extract(a.at, emit)
		}
		s.Flush(emit)
		return ok && n == len(in) && s.Stats().Inversions == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// FuzzSorter feeds arbitrary byte-derived schedules — including
// per-source timestamp regressions, which violate the transport
// invariant on purpose — to a bare sorter and a 4-shard one, and checks
// the sorter's contracts on every emission:
//
//   - conservation: every pushed record is emitted exactly once;
//   - per-source FIFO: each source's records leave in push order, even
//     when the source's timestamps regress;
//   - aging: Extract emits nothing younger than T;
//   - monotone emission when T covers every record's lateness and every
//     source's timestamps are non-decreasing.
func FuzzSorter(f *testing.F) {
	// Seed: a calm in-order stream.
	f.Add([]byte{0, 10, 5, 1, 10, 5, 0, 10, 5, 1, 10, 5})
	// Seed: edge timestamps — deltas of exactly 10 and arrivals at exactly
	// age T, so records age out at now − TS == T precisely.
	f.Add([]byte{0, 64 + 10, 128, 0, 64 + 10, 128, 1, 64, 128, 0, 64 + 10, 128})
	// Seed: a source regressing its own timestamps mid-stream (a delta
	// byte below 64 walks TS backward).
	f.Add([]byte{0, 100, 5, 0, 3, 5, 0, 100, 5})
	// Seed: a far tachyon (maximum backward step) behind the frontier.
	f.Add([]byte{0, 255, 0, 1, 0, 0, 0, 255, 0, 1, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 600 {
			data = data[:600]
		}
		var m streamModel
		ts := map[int32]int64{1: 10_000, 2: 10_000, 3: 10_000}
		now := int64(10_000)
		monotone := true
		for i := 0; i+2 < len(data); i += 3 {
			src := int32(data[i]%3) + 1
			// Delta byte is biased: values ≥ 64 advance the source's clock,
			// values below walk it backward (tachyons/regressions).
			delta := int64(data[i+1]) - 64
			if delta < 0 {
				monotone = false
			}
			ts[src] += delta
			now += int64(data[i+2]) / 4
			if late := now - ts[src]; late > m.maxLate {
				m.maxLate = late
			}
			r := rec(ts[src])
			r.Fields = append(r.Fields, record.U64Val(uint64(len(m.arrivals)+1)))
			m.arrivals = append(m.arrivals, arrival{src, r, now})
		}
		if len(m.arrivals) == 0 {
			t.Skip("no arrivals decoded")
		}
		for _, shards := range []int{0, 4} {
			checkSchedule(t, m, 640, shards, false)
			if monotone {
				checkSchedule(t, m, m.maxLate+1, shards, true)
			}
		}
	})
}

// checkSchedule runs m through a fixed-T sorter (bare when shards is 0)
// with an Extract after every arrival and a final Flush, and fails t on
// a broken contract: loss or duplication, per-source FIFO, emission
// before age T and, when wantMonotone, a timestamp going backward. Each
// arrival's last field is its 1-based index in m.arrivals.
func checkSchedule(t *testing.T, m streamModel, T int64, shards int, wantMonotone bool) {
	t.Helper()
	cfg := Config{InitialT: T, Grow: GrowFixed}
	var (
		push    func(int32, record.Record, int64)
		extract func(int64, func(record.Record)) int
		flush   func(func(record.Record)) int
	)
	if shards == 0 {
		s := New(cfg)
		push, extract, flush = s.Push, s.Extract, s.Flush
	} else {
		sh := NewSharded(cfg, shards)
		push, extract, flush = sh.Push, sh.Extract, sh.Flush
	}
	seen := make([]bool, len(m.arrivals))
	lastID := map[int32]uint64{}
	var lastTS int64
	n := 0
	// emit checks each record against the contracts; now is the Extract
	// time, or flushing is set for the final Flush, which ignores age.
	emit := func(now int64, flushing bool) func(record.Record) {
		return func(r record.Record) {
			id := r.Fields[len(r.Fields)-1].Uint()
			if id == 0 || id > uint64(len(seen)) || seen[id-1] {
				t.Fatalf("shards=%d T=%d: record %d emitted twice or never pushed", shards, T, id)
			}
			seen[id-1] = true
			if a := m.arrivals[id-1]; r.Node != a.src || r.TS != a.r.TS {
				t.Fatalf("shards=%d T=%d: record %d came out as (src %d, ts %d), pushed as (%d, %d)",
					shards, T, id, r.Node, r.TS, a.src, a.r.TS)
			}
			if id < lastID[r.Node] {
				t.Fatalf("shards=%d T=%d: source %d emitted record %d after %d", shards, T, r.Node, id, lastID[r.Node])
			}
			lastID[r.Node] = id
			if !flushing && now-r.TS < T {
				t.Fatalf("shards=%d T=%d: record %d emitted at age %d", shards, T, id, now-r.TS)
			}
			if wantMonotone && n > 0 && r.TS < lastTS {
				t.Fatalf("shards=%d T=%d: ts %d emitted after %d", shards, T, r.TS, lastTS)
			}
			lastTS = r.TS
			n++
		}
	}
	for _, a := range m.arrivals {
		push(a.src, a.r, a.at)
		extract(a.at, emit(a.at, false))
	}
	flush(emit(0, true))
	if n != len(m.arrivals) {
		t.Fatalf("shards=%d T=%d: emitted %d of %d records", shards, T, n, len(m.arrivals))
	}
}
