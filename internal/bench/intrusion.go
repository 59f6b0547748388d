package bench

import (
	"math"
	"runtime"
	"strconv"
	"time"

	"brisk"
)

// IntrusionRow is one instrumentation density of the intrusion ablation:
// the paper's first design objective is that the overhead on the target
// application be small and predictable, so that perturbation analyses can
// be performed. The ablation runs a fixed synthetic computation with a
// notice every k iterations and reports the slowdown against the
// uninstrumented run.
type IntrusionRow struct {
	// NoticeEveryK is the instrumentation density (0 = uninstrumented).
	NoticeEveryK int
	// NanosPerIter is the measured cost of one work iteration.
	NanosPerIter float64
	// SlowdownPct is the relative overhead against the baseline.
	SlowdownPct float64
	// PredictedPct is the overhead predicted from the standalone notice
	// cost (E1) — closeness of the two columns is the predictability
	// claim.
	PredictedPct float64
}

// work is the synthetic unit of application computation: enough arithmetic
// to dwarf loop overhead but small enough that instrumenting every few
// iterations is meaningful.
func work(x uint64) uint64 {
	for i := 0; i < 60; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		x *= 0x2545F4914F6CDD1D
	}
	return x
}

// benchSink defeats dead-code elimination of the synthetic computation;
// without it the uninstrumented baseline measures an empty loop.
var benchSink uint64

// intrusionPasses is how many uninstrumented and instrumented passes each
// density alternates; the row compares the fastest of each.
const intrusionPasses = 3

// timePass runs pass over iters iterations and returns its cost per
// iteration in nanoseconds of the running thread's CPU time. The pass is
// locked to its thread, so the pipeline's goroutines and other processes
// that preempt it on a busy machine are not charged to the computation.
func timePass(iters int, pass func(iters int) uint64) float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := threadClock()
	benchSink += pass(iters)
	return float64(threadClock()-start) / float64(iters)
}

// RunIntrusion measures instrumentation overhead at several densities.
// Each density alternates uninstrumented and instrumented passes of the
// same computation while its pipeline runs and compares the fastest of
// each, so the row reads what instrumentation costs the computation's own
// thread rather than how busy the rest of the machine was.
func RunIntrusion(iters int) ([]IntrusionRow, error) {
	if iters <= 0 {
		iters = 2_000_000
	}
	baseline := func(n int) uint64 {
		var sink uint64
		for i := 0; i < n; i++ {
			sink = work(sink + uint64(i))
		}
		return sink
	}

	// Standalone notice cost for the prediction column.
	noticeNanos := RunNoticeCost(iters / 4).SpecializedNanos

	rows := []IntrusionRow{{NoticeEveryK: 0, NanosPerIter: math.Inf(1)}}
	for _, k := range []int{100, 10, 1} {
		mgr, err := brisk.StartManager(brisk.ManagerOptions{
			MergeInterval: time.Millisecond,
			BufferRecords: 1024,
			Logf:          quiet,
		})
		if err != nil {
			return nil, err
		}
		node, err := brisk.ConnectNode(brisk.NodeOptions{
			ManagerAddr:   mgr.Addr(),
			FlushInterval: time.Millisecond,
			Logf:          quiet,
		})
		if err != nil {
			mgr.Close()
			return nil, err
		}
		s := node.NewSensor("intr", brisk.SensorOptions{RingBytes: 1 << 22})
		instrumented := func(n int) uint64 {
			var x uint64
			for i := 0; i < n; i++ {
				x = work(x + uint64(i))
				if i%k == 0 {
					s.Notice2i(1, int32(i), int32(x))
				}
			}
			return x
		}
		baseNanos, nanos := math.Inf(1), math.Inf(1)
		for p := 0; p < intrusionPasses; p++ {
			baseNanos = math.Min(baseNanos, timePass(iters, baseline))
			nanos = math.Min(nanos, timePass(iters, instrumented))
		}
		node.Close()
		mgr.Close()
		rows[0].NanosPerIter = math.Min(rows[0].NanosPerIter, baseNanos)
		rows = append(rows, IntrusionRow{
			NoticeEveryK: k,
			NanosPerIter: nanos,
			SlowdownPct:  100 * (nanos - baseNanos) / baseNanos,
			PredictedPct: 100 * (noticeNanos / float64(k)) / baseNanos,
		})
	}
	return rows, nil
}

// IntrusionTable renders the intrusion ablation.
func IntrusionTable(rows []IntrusionRow) *Table {
	t := &Table{
		Title: "Intrusion ablation: overhead on an instrumented computation " +
			"(paper objective: small, predictable perturbation)",
		Header: []string{"notice every", "ns/iteration", "slowdown %", "predicted %"},
	}
	for _, r := range rows {
		every := "never"
		if r.NoticeEveryK > 0 {
			every = strconv.Itoa(r.NoticeEveryK)
		}
		t.Add(every, r.NanosPerIter, r.SlowdownPct, r.PredictedPct)
	}
	return t
}
