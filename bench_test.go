// Benchmarks regenerating the paper's evaluation (one per experiment;
// see DESIGN.md's per-experiment index and EXPERIMENTS.md for the
// paper-vs-measured record). cmd/briskbench runs the same harnesses with
// full parameters and table output.
package brisk_test

import (
	"fmt"
	"testing"
	"time"

	"brisk"
	"brisk/internal/bench"
	"brisk/internal/clocksync"
	"brisk/internal/ols"
	"brisk/internal/record"
	"brisk/internal/sensor"
	"brisk/internal/shm"
	"brisk/internal/simnet"
	"brisk/internal/workload"
)

// BenchmarkE1Notice6i is experiment E1 on the specialized path: the cost
// of one NOTICE with six int fields (paper: 3.6–18.6 µs per notice).
func BenchmarkE1Notice6i(b *testing.B) {
	s := sensor.New(shm.NewRegion(), "e1", sensor.Options{RingBytes: 1 << 22})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !s.Notice6i(1, int32(i), 2, 3, 4, 5, 6) {
			s.Ring().Drain(0, func([]byte) {})
		}
	}
}

// BenchmarkE1NoticeDynamic is E1's ablation: the dynamically-typed notice
// for the same record (the specialization the paper's mknotice-equivalent
// tool exists to avoid).
func BenchmarkE1NoticeDynamic(b *testing.B) {
	s := sensor.New(shm.NewRegion(), "e1", sensor.Options{RingBytes: 1 << 22})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ok := s.Notice(1, record.I32Val(int32(i)), record.I32Val(2), record.I32Val(3),
			record.I32Val(4), record.I32Val(5), record.I32Val(6))
		if !ok {
			s.Ring().Drain(0, func([]byte) {})
		}
	}
}

// BenchmarkE2EXSDrain approximates E2's object of study: the external
// sensor's per-record cost of draining the shared-memory ring.
func BenchmarkE2EXSDrain(b *testing.B) {
	s := sensor.New(shm.NewRegion(), "e2", sensor.Options{RingBytes: 1 << 22})
	batch := make([]byte, 0, 1<<20)
	b.ReportAllocs()
	filled := 0
	for i := 0; i < b.N; i++ {
		if filled == 0 {
			b.StopTimer()
			for filled < 10_000 && s.Notice6i(1, 0, 0, 0, 0, 0, 0) {
				filled++
			}
			b.StartTimer()
		}
		var n int
		batch, n = s.Ring().DrainAppend(batch[:0], 4096)
		filled -= n
	}
}

// BenchmarkE3PipelineThroughput is experiment E3: sustained EXS→ISM
// delivery of the 40-byte record (paper: max ≈ 90,000 events/s on the
// 1997-era testbed). events/s = 1e9 / (ns/op).
func BenchmarkE3PipelineThroughput(b *testing.B) {
	rig, err := bench.StartRig(brisk.ManagerOptions{MergeInterval: time.Millisecond, BufferRecords: 1024},
		brisk.NodeOptions{FlushInterval: time.Millisecond, PollInterval: 100 * time.Microsecond}, 1)
	if err != nil {
		b.Fatal(err)
	}
	defer rig.Close()
	b.SetBytes(40)
	b.ResetTimer()
	if _, err := rig.Push(b.N); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkE4EndToEndLatency is experiment E4: one notice driven through
// sensor → ring → EXS batch → wire → sorter → consumer per iteration;
// ns/op is the end-to-end latency under the smallest batching knobs.
func BenchmarkE4EndToEndLatency(b *testing.B) {
	mgr, err := brisk.StartManager(brisk.ManagerOptions{
		MergeInterval: time.Millisecond,
		Sorter:        brisk.SorterOptions{InitialT: 100},
		Logf:          func(string, ...any) {},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer mgr.Close()
	node, err := brisk.ConnectNode(brisk.NodeOptions{
		ManagerAddr:   mgr.Addr(),
		FlushInterval: 500 * time.Microsecond,
		PollInterval:  100 * time.Microsecond,
		Logf:          func(string, ...any) {},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer node.Close()
	s := node.NewSensor("lat")
	c := mgr.Consume()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Notice2i(1, int32(i), 0)
		for {
			if _, ok := c.TryNext(); ok {
				break
			}
			time.Sleep(10 * time.Microsecond)
		}
	}
}

// BenchmarkE5ScaleNodes is experiment E5: aggregate delivery with 1, 2, 4
// and 8 concurrently pushing nodes (paper: ISM-bound, roughly constant).
func BenchmarkE5ScaleNodes(b *testing.B) {
	for _, n := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
			rig, err := bench.StartRig(brisk.ManagerOptions{MergeInterval: time.Millisecond, BufferRecords: 1024},
				brisk.NodeOptions{FlushInterval: time.Millisecond, PollInterval: 100 * time.Microsecond}, n)
			if err != nil {
				b.Fatal(err)
			}
			defer rig.Close()
			per := max(b.N/n, 1)
			b.ResetTimer()
			if _, err := rig.Push(per); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			b.ReportMetric(float64(per*n)/b.Elapsed().Seconds(), "events/s")
		})
	}
}

// BenchmarkE6ClockSyncRound is experiment E6's unit of work: one complete
// synchronization round (probes, election, corrections) over the
// simulated eight-node LAN.
func BenchmarkE6ClockSyncRound(b *testing.B) {
	c := clocksync.NewSimCluster(8, simnet.QuietLAN(1), 5_000_000, 2, 9)
	m := clocksync.NewMaster(c.MasterClock, clocksync.Config{}, c.Conns())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.Round(); err != nil {
			b.Fatal(err)
		}
		c.Sim.RunUntil(c.Sim.Now() + 5_000_000)
	}
}

// BenchmarkE6CristianRound is E6's baseline algorithm for comparison.
func BenchmarkE6CristianRound(b *testing.B) {
	c := clocksync.NewSimCluster(8, simnet.QuietLAN(1), 5_000_000, 2, 9)
	m := clocksync.NewMaster(c.MasterClock,
		clocksync.Config{Algorithm: clocksync.AlgCristian, MaxSlew: 2500}, c.Conns())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.Round(); err != nil {
			b.Fatal(err)
		}
		c.Sim.RunUntil(c.Sim.Now() + 5_000_000)
	}
}

// BenchmarkE7OLS is experiment E7's unit of work: pushing and extracting
// one record through the adaptive on-line sorter with eight sources, for
// each growth policy (the ablation of the paper's strategy finding).
func BenchmarkE7OLS(b *testing.B) {
	policies := []struct {
		name string
		grow ols.GrowPolicy
	}{
		{"lateness", ols.GrowToLateness},
		{"double", ols.GrowDouble},
		{"fixed", ols.GrowFixed},
	}
	for _, p := range policies {
		b.Run(p.name, func(b *testing.B) {
			events := workload.GenDelayedStreams([]workload.StreamSpec{
				{Source: 1, MeanGap: 100, Delay: workload.DelayParams{Base: 100, JitterMean: 50}},
				{Source: 2, MeanGap: 100, Delay: workload.DelayParams{Base: 2000, JitterMean: 500}},
			}, 10_000, 3)
			s := ols.New(ols.Config{InitialT: 100, Grow: p.grow})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev := events[i%len(events)]
				// The stream repeats modulo its length; shift both the
				// timestamps and the arrivals by an epoch so time keeps
				// advancing across wraps.
				epoch := int64(i/len(events)) * (events[len(events)-1].Arrival + 1)
				rec := record.New(1, record.TSVal(epoch+ev.TS), record.I32Val(ev.Source))
				s.Push(ev.Source, rec, epoch+ev.Arrival)
				s.Extract(epoch+ev.Arrival, func(record.Record) {})
			}
		})
	}
}

// BenchmarkE7Sweep runs the complete E7 scenario sweep once per iteration
// — the full table's cost, for profiling the evaluation harness itself.
func BenchmarkE7Sweep(b *testing.B) {
	scenarios := bench.DefaultOLSScenarios(1)
	for i := range scenarios {
		scenarios[i].Events = 2000
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, sc := range scenarios {
			bench.RunOLS(sc)
		}
	}
}
