// Command perfbench is BRISK's benchmark: one seeded command that drives a
// workload through the real pipeline, checks the delivered stream, and
// prints every end-to-end metric (or, with -trace 1, every per-layer
// metric) by name and unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload flood --seed 1 --seconds 15 --trace 0
//
// See perfbench/README.md for the workloads, the metrics and the span file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	commit   string
	spanDir  string
}

// workloads maps each workload name to its constructor.
var workloads = map[string]func(options) workload{
	"flood": newFlood,
	"paced": newPaced,
	"fanin": newFanin,
}

// lagBoundUs is the generator lateness p99 above which a paced or fanin
// run is invalid: the load was not offered as specified.
var lagBoundUs = map[string]float64{"paced": 20_000, "fanin": 50_000}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: flood, paced or fanin")
	fs.Int64Var(&o.seed, "seed", 1, "seed every generated input derives from")
	fs.IntVar(&o.seconds, "seconds", 15, "length of the measured window")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced pass and prints per-layer metrics")
	fs.StringVar(&o.commit, "commit", "unknown", "commit id for the environment stamp")
	fs.StringVar(&o.spanDir, "spans", ".bench_build/spans", "directory the traced run writes its span file to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	newW, ok := workloads[o.workload]
	if !ok || o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload flood|paced|fanin, -seconds ≥ 1, -trace 0|1\n")
		return 2
	}
	fmt.Fprintf(stdout, "# env workload=%s seed=%d seconds=%d trace=%d gomaxprocs=%d numcpu=%d go=%s commit=%s\n",
		o.workload, o.seed, o.seconds, trace, gomaxprocs, runtime.NumCPU(), runtime.Version(), o.commit)

	base, err := runPass(o, newW, false)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	if !validLoad(o.workload, base, stderr) {
		return 1
	}
	res := result{Attempted: base.issued, Failed: base.lost + base.subMissing}
	res.Correct = len(base.problems) == 0
	for _, p := range base.problems {
		fmt.Fprintf(stdout, "# CHECK FAILED: %s\n", p)
	}
	e2e := endToEnd(base)
	printE2E(stdout, base, e2e)
	res.Metrics = e2e

	if o.trace {
		traced, err := runPass(o, newW, true)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s traced: %v\n", o.workload, err)
			return 1
		}
		if !validLoad(o.workload, traced, stderr) {
			return 1
		}
		for _, p := range traced.problems {
			fmt.Fprintf(stdout, "# CHECK FAILED (traced): %s\n", p)
		}
		res.Correct = res.Correct && len(traced.problems) == 0
		res.Attempted += traced.issued
		res.Failed += traced.lost + traced.subMissing
		in, err := traced.wl.replayInput(traced.captured, traced.layers)
		var rep replayResult
		if err == nil {
			rep, err = replay(in)
		}
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
			return 1
		}
		pl := perLayer(base, traced, rep, in.passes)
		path := filepath.Join(o.spanDir, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
		if err := traced.tracer.write(path); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
		printLayers(stdout, base, traced, pl, rep, path)
		res.Metrics = pl
	}

	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

// validLoad rejects a run whose generator fell too far behind its own
// schedule: its latencies would describe a different offered load.
func validLoad(name string, p *passResult, stderr io.Writer) bool {
	bound, ok := lagBoundUs[name]
	if !ok {
		return true
	}
	if p.lag.N == 0 || p.lag.P99 > bound {
		fmt.Fprintf(stderr, "perfbench: invalid run: generator lag p99 %.1f µs (n=%d) exceeds %.0f µs\n",
			p.lag.P99, p.lag.N, bound)
		return false
	}
	return true
}

func endToEnd(p *passResult) map[string]metric {
	return map[string]metric{
		"delivered_rps":      {p.deliveredRPS(), "rec/s"},
		"latency_p50_us":     {p.lat.P50 / 1e3, "us"},
		"latency_p99_us":     {p.lat.P99 / 1e3, "us"},
		"sub_latency_p99_us": {p.subLat.P99 / 1e3, "us"},
		"notice_ns":          {p.notice.P50, "ns"},
		"cpu_ns_per_rec":     {p.cpuNsPerRec(), "ns"},
		"allocs_per_rec":     {p.allocsPerRec(), "allocs"},
		"peak_heap_mb":       {float64(p.heapPeak) / (1 << 20), "MiB"},
		"setup_s":            {median(p.setupS), "s"},
	}
}

func printE2E(w io.Writer, p *passResult, m map[string]metric) {
	lossRatio := float64(p.lost+p.subMissing) / float64(p.issued)
	fmt.Fprintf(w, "# issued=%d delivered_in_window=%d window_s=%.3f lost=%d sub_missing=%d sub_marked=%d loss_ratio=%g\n",
		p.issued, p.delivered, p.window, p.lost, p.subMissing, p.subDropped, lossRatio)
	fmt.Fprintf(w, "# latency_us p50=%.1f p99=%.1f n=%d | sub_latency_us p50=%.1f p99=%.1f n=%d | notice_ns p50=%.2f p99=%.2f n=%d | gen_lag_us p50=%.1f p99=%.1f n=%d\n",
		p.lat.P50/1e3, p.lat.P99/1e3, p.lat.N, p.subLat.P50/1e3, p.subLat.P99/1e3, p.subLat.N,
		p.notice.P50, p.notice.P99, p.notice.N, p.lag.P50, p.lag.P99, p.lag.N)
	fmt.Fprintf(w, "# setup_s runs=%v\n", fmtList(p.setupS))
	var rps []float64
	for i := 1; i < len(p.snaps); i++ {
		rps = append(rps, float64(p.dels[i]-p.dels[i-1])/p.snaps[i].wall.Sub(p.snaps[i-1].wall).Seconds())
	}
	fmt.Fprintf(w, "# delivered_rps per second=%v\n", fmtList(rps))
	if p.orderBreaks > 0 {
		// Known engine behaviour, reported but not gated: a subscription
		// merges its shards into emission order only within one read.
		fmt.Fprintf(w, "# subscriber global-order breaks: %d records arrived behind a later-emitted record from another source\n", p.orderBreaks)
	}
	for _, name := range sortedKeys(m) {
		fmt.Fprintf(w, "%-20s %14.4f %s\n", name, m[name].Value, m[name].Unit)
	}
}

func fmtList(xs []float64) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = fmt.Sprintf("%.4f", x)
	}
	return strings.Join(s, " ")
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
