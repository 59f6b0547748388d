package bench

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"brisk"
	"brisk/internal/clocksync"
	"brisk/internal/ols"
	"brisk/internal/simnet"
)

func TestTableRender(t *testing.T) {
	tb := &Table{Title: "demo", Header: []string{"a", "bee"}}
	tb.Add(1, 2.5)
	tb.Add("xxxx", "y")
	var sb strings.Builder
	tb.Render(&sb)
	out := sb.String()
	for _, want := range []string{"## demo", "a", "bee", "2.50", "xxxx", "----"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
}

func TestRunNoticeCost(t *testing.T) {
	res := RunNoticeCost(20_000)
	if res.SpecializedNanos <= 0 || res.DynamicNanos <= 0 ||
		res.StringNanos <= 0 || res.DrainNanos <= 0 {
		t.Fatalf("zero timings: %+v", res)
	}
	// The specialized path must not be slower than ~2x the dynamic one
	// (it is the point of specialization that it is faster; allow jitter).
	if res.SpecializedNanos > 2*res.DynamicNanos {
		t.Fatalf("specialized %v ns vs dynamic %v ns", res.SpecializedNanos, res.DynamicNanos)
	}
	if res.Table() == nil || len(res.Table().Rows) != 4 {
		t.Fatal("table shape wrong")
	}
}

func TestRunThroughputSmall(t *testing.T) {
	res, err := RunThroughput(20_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Events != 20_000 || res.EventsPS <= 0 {
		t.Fatalf("res = %+v", res)
	}
	// The paper's testbed reached 90k events/s; the reproduction must at
	// least be in that order of magnitude on any modern host.
	if res.EventsPS < 30_000 {
		t.Fatalf("throughput suspiciously low: %.0f events/s", res.EventsPS)
	}
	if len(res.Table().Rows) != 1 {
		t.Fatal("table shape")
	}
}

// TestRigPushStopsAtData: Push returns only once every data record is
// past the sorter. The slow ring scan makes the ring refuse notices, so
// the EXS ships loss markers that reach the sinks too and must not count
// toward the total.
func TestRigPushStopsAtData(t *testing.T) {
	var data atomic.Int64
	rig, err := StartRig(brisk.ManagerOptions{
		MergeInterval: time.Millisecond,
		Filter:        func(*brisk.Record) bool { data.Add(1); return true },
	}, brisk.NodeOptions{FlushInterval: time.Millisecond, PollInterval: 100 * time.Millisecond}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer rig.Close()
	const events = 200_000
	if _, err := rig.Push(events); err != nil {
		t.Fatal(err)
	}
	if got := data.Load(); got != events {
		t.Fatalf("Push returned with %d of %d data records delivered", got, events)
	}
	if st := rig.Nodes[0].Stats(); st.RingDropped == 0 || st.LossMarkers == 0 {
		t.Fatalf("no retried refusals to mark (ring refusals %d, markers %d)", st.RingDropped, st.LossMarkers)
	}
}

func TestRunSyncQuietConverges(t *testing.T) {
	sc := SyncScenario{
		Name: "test", Nodes: 8, OffsetSpread: 5_000_000, DriftSpread: 2,
		Net: simnet.QuietLAN(3), Rounds: 40, PollPeriod: 5_000_000, Seed: 3,
	}
	res := RunSync(sc)
	if res.RoundsToConverge < 0 {
		t.Fatalf("no convergence: %+v", res.Series)
	}
	if res.SteadyMeanMicros > 100 {
		t.Fatalf("steady mean %v µs not 'tens of microseconds'", res.SteadyMeanMicros)
	}
	if res.Under200Pct < 99 {
		t.Fatalf("quiet LAN under-200 fraction = %v", res.Under200Pct)
	}
}

func TestDefaultSyncScenariosShape(t *testing.T) {
	scs := DefaultSyncScenarios(1)
	if len(scs) != 4 {
		t.Fatalf("scenarios = %d", len(scs))
	}
	var results []SyncResult
	for _, sc := range scs {
		sc.Rounds = 30 // keep the test fast
		results = append(results, RunSync(sc))
	}
	// BRISK (index 2) must converge faster than amortized Cristian
	// (index 3) from the same 50 ms spread.
	b, c := results[2], results[3]
	if b.RoundsToConverge < 0 {
		t.Fatal("BRISK did not converge")
	}
	if c.RoundsToConverge >= 0 && b.RoundsToConverge >= c.RoundsToConverge {
		t.Fatalf("BRISK %d rounds vs Cristian %d", b.RoundsToConverge, c.RoundsToConverge)
	}
	if tb := SyncTable(results); len(tb.Rows) != 4 {
		t.Fatal("sync table shape")
	}
}

func TestRunOLSPolicyOrdering(t *testing.T) {
	mk := func(cfg ols.Config) OLSResult {
		return RunOLS(OLSScenario{
			Name: "t", Sources: 4, Events: 5000,
			DelayProfile: "skewed", Sorter: cfg, Seed: 11,
		})
	}
	fixed := mk(ols.Config{InitialT: 100, Grow: ols.GrowFixed})
	lateness := mk(ols.Config{InitialT: 100, Grow: ols.GrowToLateness})
	// The paper's finding: sizing T to the latest lateness suppresses
	// disorder that a small fixed T cannot.
	if fixed.OutOfOrderPct <= lateness.OutOfOrderPct {
		t.Fatalf("fixed %.3f%% vs lateness %.3f%% out of order",
			fixed.OutOfOrderPct, lateness.OutOfOrderPct)
	}
	if lateness.OutOfOrderPct > 0.5 {
		t.Fatalf("adaptive policy left %.3f%% disorder", lateness.OutOfOrderPct)
	}
	// And the latency price: the adaptive window delays records longer.
	if lateness.MeanLatencyMicros <= fixed.MeanLatencyMicros {
		t.Fatalf("no ordering/latency trade-off visible: %v vs %v",
			lateness.MeanLatencyMicros, fixed.MeanLatencyMicros)
	}
}

func TestRunOLSDecayTradeOff(t *testing.T) {
	mk := func(halfLife int64) OLSResult {
		return RunOLS(OLSScenario{
			Name: "t", Sources: 4, Events: 8000,
			DelayProfile: "spiky",
			Sorter:       ols.Config{InitialT: 100, Grow: ols.GrowToLateness, HalfLife: halfLife},
			Seed:         5,
		})
	}
	fast := mk(1_000)
	slow := mk(1_000_000)
	// Fast decay reduces latency but admits more disorder; slow decay
	// (large half-life) holds ordering — the paper's second finding.
	if fast.MeanLatencyMicros >= slow.MeanLatencyMicros {
		t.Fatalf("fast decay mean latency %v ≥ slow %v",
			fast.MeanLatencyMicros, slow.MeanLatencyMicros)
	}
	if fast.OutOfOrderPct <= slow.OutOfOrderPct {
		t.Fatalf("fast decay disorder %v ≤ slow %v",
			fast.OutOfOrderPct, slow.OutOfOrderPct)
	}
}

func TestDefaultOLSScenariosRun(t *testing.T) {
	scs := DefaultOLSScenarios(1)
	if len(scs) < 8 {
		t.Fatalf("scenarios = %d", len(scs))
	}
	var results []OLSResult
	for _, sc := range scs {
		sc.Events = 1000
		r := RunOLS(sc)
		if r.Emitted == 0 {
			t.Fatalf("%s emitted nothing", sc.Name)
		}
		results = append(results, r)
	}
	if tb := OLSTable(results); len(tb.Rows) != len(scs) {
		t.Fatal("ols table shape")
	}
}

func TestRunLatencyMonotoneInKnobs(t *testing.T) {
	rows, err := RunLatency(15)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Coarse shape: the 40 ms setting must cost far more than the 500 µs
	// setting (the paper's waiting-call bound scales with the knob).
	if rows[len(rows)-1].MeanMicros < 4*rows[0].MeanMicros {
		t.Fatalf("latency does not track the knobs: first %v µs, last %v µs",
			rows[0].MeanMicros, rows[len(rows)-1].MeanMicros)
	}
	if tb := LatencyTable(rows); len(tb.Rows) != 6 {
		t.Fatal("latency table shape")
	}
}

func TestRunScaleSmall(t *testing.T) {
	rows, err := RunScale(2, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].AggregatePS <= 0 || rows[1].AggregatePS <= 0 {
		t.Fatalf("rows = %+v", rows)
	}
	if tb := ScaleTable(rows); len(tb.Rows) != 2 {
		t.Fatal("scale table shape")
	}
}

func TestRunEXSUtilSmall(t *testing.T) {
	rows, err := RunEXSUtil([]int{2000}, 300*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].TotalCPUPct < 0 || rows[0].ExsCPUPct < 0 {
		t.Fatalf("rows = %+v", rows)
	}
	if tb := UtilTable(rows); len(tb.Rows) != 1 {
		t.Fatal("util table shape")
	}
}

func TestRunSyncDisturbedMostlyUnder200(t *testing.T) {
	sc := SyncScenario{
		Name: "disturbed", Nodes: 8, OffsetSpread: 5_000_000, DriftSpread: 2,
		Net: simnet.LAN(2), Rounds: 60, PollPeriod: 5_000_000,
		Sync: clocksync.Config{MaxRTT: 1500}, Seed: 2,
	}
	res := RunSync(sc)
	if res.Under200Pct < 70 {
		t.Fatalf("disturbed LAN under-200%% = %v, want 'most of the time'", res.Under200Pct)
	}
}

func TestRunIntrusionShape(t *testing.T) {
	rows, err := RunIntrusion(300_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 || rows[0].NoticeEveryK != 0 {
		t.Fatalf("rows = %+v", rows)
	}
	// Overhead must grow with instrumentation density.
	for i := 2; i < len(rows); i++ {
		if rows[i].SlowdownPct < rows[i-1].SlowdownPct-5 {
			t.Fatalf("slowdown not monotone in density: %+v", rows)
		}
	}
	// Sparse instrumentation must be cheap (paper objective): the
	// 1-notice-per-100-iterations row stays in low single digits (the
	// race detector inflates the instrumented path, so allow more there).
	limit := 15.0
	if raceEnabled {
		limit = 80.0
	}
	if rows[1].SlowdownPct > limit {
		t.Fatalf("sparse instrumentation costs %.1f%%", rows[1].SlowdownPct)
	}
	if tb := IntrusionTable(rows); len(tb.Rows) != 4 {
		t.Fatal("intrusion table shape")
	}
}
