package bench

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"time"

	"brisk/internal/ism"
	"brisk/internal/ols"
	"brisk/internal/record"
	"brisk/internal/relay"
	"brisk/internal/subscribe"
	"brisk/internal/wire"
)

// floodTarget is one pipeline under flood: the address the synthetic
// sensors dial, the manager whose sinks the flood must reach, and the
// teardown. markers, when set, counts the loss markers shipped into sink
// from upstream: the relay's uplink marks every batch it evicts from
// its replay queue, even one the parent already holds, so markers can
// arrive on top of a complete flood.
type floodTarget struct {
	addr    string
	sink    *ism.Manager
	markers func() uint64
	close   func()
}

// emitted counts the flood records past the sink's sorter. Until the
// sink's own count reaches total the flood is unfinished whatever the
// markers say, so they are read only then, keeping the upstream stats
// snapshot out of the timed wait. They are read after the sink, so every
// marker the sink has emitted is subtracted.
func (t floodTarget) emitted(total int) int {
	n := int(t.sink.Stats().Emitted)
	if n >= total && t.markers != nil {
		n -= int(t.markers())
	}
	return n
}

// floodISM is the manager configuration every flood topology uses, at
// the root and at the relay alike.
func floodISM(tap ism.SinkTap) ism.Config {
	return ism.Config{
		Addr:              "127.0.0.1:0",
		MergeInterval:     time.Millisecond,
		BufferRecords:     1 << 16,
		Sorter:            ols.Config{InitialT: 100},
		HeartbeatInterval: -1,
		Tap:               tap,
		Logf:              quiet,
	}
}

func startManager(tap ism.SinkTap) (*ism.Manager, error) {
	m, err := ism.New(floodISM(tap))
	if err != nil {
		return nil, err
	}
	m.Start()
	return m, nil
}

// runFlood is the one flood driver. It starts a pipeline, floods it from
// `sessions` synthetic sensors with `perSession` pre-encoded records
// each, and reports the sustained delivery rate at the target manager's
// sinks plus the whole-process allocation cost per record. The sensors
// reuse one pre-encoded payload, so the pipeline is the bottleneck, not
// the sensors.
func runFlood(name string, sessions, perSession, batchRecords int,
	setup func(batchRecords int) (floodTarget, error)) (IngestResult, error) {
	if perSession <= 0 {
		perSession = 150_000
	}
	if batchRecords <= 0 {
		batchRecords = 256
	}
	batches := max(perSession/batchRecords, 1)
	total := sessions * batches * batchRecords

	t, err := setup(batchRecords)
	if err != nil {
		return IngestResult{}, err
	}
	defer t.close()

	// The evaluation record: an embedded timestamp plus six ints, 40 bytes
	// on the wire. Stamped well in the past so extraction never waits on T.
	ts := time.Now().UnixMicro() - 10_000_000
	var payload []byte
	for i := 0; i < batchRecords; i++ {
		rec := record.New(1,
			record.TSVal(ts),
			record.I32Val(int32(i)), record.I32Val(2), record.I32Val(3),
			record.I32Val(4), record.I32Val(5), record.I32Val(6))
		if payload, err = rec.Append(payload); err != nil {
			return IngestResult{}, err
		}
	}

	conns := make([]*wire.Conn, sessions)
	for i := range conns {
		raw, err := net.Dial("tcp", t.addr)
		if err != nil {
			return IngestResult{}, err
		}
		defer raw.Close()
		wc := wire.NewConn(raw)
		if err := wc.Send(&wire.Hello{Version: wire.ProtocolVersion, Name: "bench"}); err != nil {
			return IngestResult{}, err
		}
		if _, err := wc.Recv(); err != nil {
			return IngestResult{}, fmt.Errorf("bench: %s: hello ack: %w", name, err)
		}
		conns[i] = wc
	}

	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	errs := make(chan error, sessions)
	var wg sync.WaitGroup
	for _, wc := range conns {
		wg.Add(1)
		go func(wc *wire.Conn) {
			defer wg.Done()
			b := &wire.DataBatch{Count: uint32(batchRecords), Payload: payload}
			for i := 0; i < batches; i++ {
				if err := wc.Send(b); err != nil {
					errs <- err
					return
				}
			}
		}(wc)
	}
	wg.Wait()
	deadline := time.Now().Add(120 * time.Second)
	emitted := t.emitted(total)
	for emitted < total && time.Now().Before(deadline) {
		time.Sleep(200 * time.Microsecond)
		emitted = t.emitted(total)
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)
	select {
	case err := <-errs:
		return IngestResult{}, err
	default:
	}
	if emitted != total {
		return IngestResult{}, fmt.Errorf("bench: %s: emitted %d of %d", name, emitted, total)
	}
	return IngestResult{
		Name:            name,
		Sessions:        sessions,
		Records:         total,
		ElapsedMicros:   elapsed.Microseconds(),
		RecordsPerSec:   float64(total) / elapsed.Seconds(),
		MBPerSec:        float64(t.sink.Stats().BytesIn) / 1e6 / elapsed.Seconds(),
		AllocsPerRecord: float64(ms1.Mallocs-ms0.Mallocs) / float64(total),
	}, nil
}

// RunIngest floods a bare manager from `sessions` synthetic sensors: the
// decode → merge → sort → sink path, measured end to end at the manager.
func RunIngest(sessions, perSession, batchRecords int) (IngestResult, error) {
	sessions = max(sessions, 1)
	return runFlood(fmt.Sprintf("ingest/sessions=%d", sessions), sessions, perSession, batchRecords,
		func(int) (floodTarget, error) {
			m, err := startManager(nil)
			if err != nil {
				return floodTarget{}, err
			}
			return floodTarget{addr: m.Addr(), sink: m, close: func() { m.Close() }}, nil
		})
}

// RunRelayIngest is the federated counterpart of RunIngest: the sensors
// flood ONE relay, which locally sorts and forwards its merged regional
// stream upstream as a single RelayBatch session, and the root re-merges
// it. The rate is delivery at the root's sinks, so it prices the whole
// extra hop: relay decode → sort → forward tap → uplink encode → root
// decode → merge. Compare against ingest/sessions=N for the relay tier's
// overhead.
func RunRelayIngest(sessions, perSession, batchRecords int) (IngestResult, error) {
	sessions = max(sessions, 1)
	return runFlood(fmt.Sprintf("relay/sessions=%d", sessions), sessions, perSession, batchRecords,
		func(batchRecords int) (floodTarget, error) {
			root, err := startManager(nil)
			if err != nil {
				return floodTarget{}, err
			}
			rl, err := relay.New(relay.Config{
				Addr:          "127.0.0.1:0",
				Parent:        root.Addr(),
				Name:          "bench-relay",
				ISM:           floodISM(nil),
				BatchRecords:  batchRecords,
				FlushInterval: time.Millisecond,
				Logf:          quiet,
			})
			if err != nil {
				root.Close()
				return floodTarget{}, err
			}
			return floodTarget{addr: rl.Addr(), sink: root,
				markers: func() uint64 { return rl.Stats().LossMarkers },
				close:   func() { rl.Close(); root.Close() }}, nil
		})
}

// RunSubscribeIngest floods one session into a manager with the
// subscription engine tapped into the sink flush and `subscribers` idle
// readers attached. The readers' filters match nothing the workload
// emits, so the measured cost is the tap itself: the per-record Publish
// into the hot window plus the per-flush wake scan over the subscriber
// list. Compare against subscribers=0 — the acceptance bar is that 1024
// idle readers price in under a few percent of ingest throughput.
func RunSubscribeIngest(subscribers, perSession, batchRecords int) (IngestResult, error) {
	subscribers = max(subscribers, 0)
	r, err := runFlood(fmt.Sprintf("subscribe/subscribers=%d", subscribers), 1, perSession, batchRecords,
		func(int) (floodTarget, error) {
			eng := subscribe.New(subscribe.Config{WindowBytes: 8 << 20})
			m, err := startManager(eng)
			if err != nil {
				eng.Close()
				return floodTarget{}, err
			}
			ctx, cancel := context.WithCancel(context.Background())
			var readers sync.WaitGroup
			t := floodTarget{addr: m.Addr(), sink: m, close: func() {
				cancel()
				readers.Wait()
				m.Close()
				eng.Close()
			}}
			// The workload emits event class 1 only; the idle readers
			// subscribe to class 200, so wake suppression keeps every one
			// of them parked.
			f, err := subscribe.ParseFilter("event=200")
			if err != nil {
				t.close()
				return floodTarget{}, err
			}
			for i := 0; i < subscribers; i++ {
				sub, err := eng.Subscribe(f, false)
				if err != nil {
					t.close()
					return floodTarget{}, err
				}
				readers.Add(1)
				go func() {
					defer readers.Done()
					defer sub.Close()
					for {
						if _, err := sub.Next(ctx); err != nil {
							return
						}
					}
				}()
			}
			return t, nil
		})
	if err != nil {
		return IngestResult{}, err
	}
	r.Subscribers = subscribers
	return r, nil
}

// runSuite runs one configuration per count.
func runSuite(counts []int, run func(n int) (IngestResult, error)) ([]IngestResult, error) {
	var out []IngestResult
	for _, n := range counts {
		r, err := run(n)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// RunIngestSuite runs the ingest benchmark at each session count.
func RunIngestSuite(sessionCounts []int, perSession, batchRecords int) ([]IngestResult, error) {
	return runSuite(sessionCounts, func(n int) (IngestResult, error) {
		return RunIngest(n, perSession, batchRecords)
	})
}

// RunSubscribeSuite runs the tapped-ingest benchmark at each subscriber
// count. This row is informational, not gated: CompareBench only
// enforces names present in the committed baseline.
func RunSubscribeSuite(subCounts []int, perSession, batchRecords int) ([]IngestResult, error) {
	return runSuite(subCounts, func(n int) (IngestResult, error) {
		return RunSubscribeIngest(n, perSession, batchRecords)
	})
}

var floodTitles = map[string]string{
	"ingest":    "ingest: manager decode→merge→sink capacity vs session count",
	"relay":     "relay: leaf→relay→root federated delivery vs session count",
	"subscribe": "subscribe: ingest capacity vs idle subscriber count (tap attached)",
}

// FloodTable renders flood rows of one topology. The row names
// ("ingest/sessions=8", "subscribe/subscribers=64") give the title and
// the key column.
func FloodTable(rows []IngestResult) *Table {
	t := &Table{Header: []string{"sessions", "records", "elapsed", "records/s", "MB/s", "allocs/record"}}
	for _, r := range rows {
		kind, key, _ := strings.Cut(r.Name, "/")
		axis, n, _ := strings.Cut(key, "=")
		t.Title, t.Header[0] = floodTitles[kind], axis
		t.Add(n, r.Records,
			(time.Duration(r.ElapsedMicros) * time.Microsecond).Round(time.Millisecond),
			r.RecordsPerSec, r.MBPerSec, r.AllocsPerRecord)
	}
	return t
}
