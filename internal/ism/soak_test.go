package ism

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"brisk/internal/exs"
	"brisk/internal/faultnet"
	"brisk/internal/ols"
	"brisk/internal/sensor"
	"brisk/internal/shm"
)

// TestSoakEightSessionsWithFlaps is the parallel-ingest soak: eight
// sessions stream concurrently through individual faultnet proxies whose
// links flap mid-run, exercising eight decoding readers, session resume and
// retransmission all at once (run under -race via `make test-race`). The
// manager's output must contain every record from every session exactly
// once (multiset equality), per-session emission must preserve source
// order, and — because the sorter window is configured to cover even the
// flap-induced retransmission lateness — global emission must be monotone
// in timestamp.
func TestSoakEightSessionsWithFlaps(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	const (
		sessions  = 8
		perNode   = 400
		flapEvery = 120 // records between link cuts, per flapping node
	)
	m := newManager(t, Config{
		BufferRecords: sessions * perNode * 2,
		// A 2 s window dwarfs any reconnect-and-retransmit delay the flaps
		// can cause, so every record ages into order before emission.
		Sorter: ols.Config{InitialT: 2_000_000},
	})

	type node struct {
		e     *exs.EXS
		s     *sensor.Sensor
		proxy *faultnet.Proxy
	}
	nodes := make([]*node, sessions)
	for i := range nodes {
		proxy, err := faultnet.Listen(m.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { proxy.Close() })
		region := shm.NewRegion()
		e, err := exs.Dial(exs.Config{
			ManagerAddr:          proxy.Addr(),
			NodeName:             fmt.Sprintf("soak-%d", i),
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
		nodes[i] = &node{e: e, s: sensor.New(region, "app", sensor.Options{}), proxy: proxy}
	}

	// All sessions emit concurrently; odd-numbered nodes flap their links
	// every flapEvery records, cutting mid-stream wherever the bytes land.
	var wg sync.WaitGroup
	for i, n := range nodes {
		wg.Add(1)
		go func(i int, n *node) {
			defer wg.Done()
			for seq := int32(0); seq < perNode; seq++ {
				if i%2 == 1 && seq > 0 && seq%flapEvery == 0 {
					n.proxy.CutNow()
				}
				for !n.s.Notice2i(1, seq, int32(i)) {
					time.Sleep(time.Microsecond)
				}
			}
			n.e.Flush()
		}(i, n)
	}
	wg.Wait()

	const total = sessions * perNode
	// Every sensor must drain: online with an empty retransmit queue means
	// the manager acked (and therefore queued for merge) everything.
	for i, n := range nodes {
		waitUntil(t, 30*time.Second, fmt.Sprintf("node %d drained", i), func() bool {
			st := n.e.Stats()
			return st.Online && st.QueuedBytes == 0 && st.Sent == perNode
		})
	}
	waitUntil(t, 30*time.Second, "all records emitted", func() bool {
		return m.Stats().Emitted >= total
	})

	got := drainCursor(t, m, total, 30*time.Second)
	if len(got) != total {
		t.Fatalf("emitted %d records, want exactly %d", len(got), total)
	}

	// Exactly-once, per-session FIFO, and globally monotone emission.
	type ident struct {
		writer int32 // the i the sensor stamped (stable across resumes)
		seq    int32
	}
	seen := make(map[ident]int, total)
	lastPerWriter := make(map[int32]int32)
	var lastTS int64
	var orderViolations uint64
	for _, r := range got {
		id := ident{writer: int32(r.Fields[2].Int()), seq: int32(r.Fields[1].Int())}
		seen[id]++
		if last, ok := lastPerWriter[id.writer]; ok && id.seq <= last {
			t.Fatalf("session %d: seq %d emitted after %d (per-source order broken)",
				id.writer, id.seq, last)
		}
		lastPerWriter[id.writer] = id.seq
		if r.TS < lastTS {
			orderViolations++
		} else {
			lastTS = r.TS
		}
	}
	for w := int32(0); w < sessions; w++ {
		for s := int32(0); s < perNode; s++ {
			switch seen[ident{w, s}] {
			case 1:
			case 0:
				t.Fatalf("session %d record %d lost", w, s)
			default:
				t.Fatalf("session %d record %d duplicated (%d copies)", w, s, seen[ident{w, s}])
			}
		}
	}
	st := m.Stats()
	if orderViolations != 0 {
		t.Fatalf("%d global order violations (sorter counted %d inversions); emit order must be monotone",
			orderViolations, st.Sorter.Inversions)
	}
	if st.ResumedSessions == 0 {
		t.Fatal("no session ever resumed — the flaps did not bite")
	}
	t.Logf("soak: %d records, %d resumes, %d deduped batches, %d inversions",
		total, st.ResumedSessions, st.DedupedBatches, st.Sorter.Inversions)
}
