package main

import (
	"fmt"
	"io"
)

// layerUnits lists every per-layer metric the traced run prints, with its
// unit. Every workload prints every name; a layer the workload does not
// exercise reads 0 (see README.md for which workload moves which row).
var layerUnits = []struct{ name, unit string }{
	{"sensor.notice_ns", "ns"},
	{"sensor.ring_full_ratio", "ratio"},
	{"shm.ring_dropped", "count"},
	{"shm.publish_ns_per_rec", "ns"},
	{"exs.recs_per_batch", "rec"},
	{"exs.bytes_per_rec", "B"},
	{"exs.flush_ns", "ns"},
	{"exs.credit_stalls", "count"},
	{"wire.send_ns_per_batch", "ns"},
	{"wire.bytes_per_rec", "B"},
	{"wire.batches_per_s", "1/s"},
	{"record.decode_ns_per_rec", "ns"},
	{"record.decode_allocs_per_rec", "allocs"},
	{"ism.backlog_max", "rec"},
	{"ism.ack_deferred", "count"},
	{"ism.batches", "count"},
	{"ism.emit_latency_p99_us", "us"},
	{"ols.ns_per_rec", "ns"},
	{"ols.allocs_per_rec", "allocs"},
	{"ols.buffered_max", "rec"},
	{"ols.inversions", "count"},
	{"ols.heap_fallbacks", "count"},
	{"ols.calendar_rebuilds", "count"},
	{"ols.timeframe_max_us", "us"},
	{"ols.dropped_full", "count"},
	{"cre.ns_per_rec", "ns"},
	{"cre.held_max", "rec"},
	{"cre.tachyons", "count"},
	{"relay.forwarded", "count"},
	{"relay.recs_per_uplink_batch", "rec"},
	{"relay.backlog_max", "rec"},
	{"relay.loss_markers", "count"},
	{"subscribe.publish_ns_per_rec", "ns"},
	{"subscribe.next_ns", "ns"},
	{"subscribe.delivered", "count"},
	{"subscribe.dropped", "count"},
	{"subscribe.order_breaks", "count"},
	{"clocksync.probes_per_s", "1/s"},
	{"clocksync.fallbacks", "count"},
	{"clocksync.residual_skew_us", "us"},
	{"proc.cpu_user_s", "s"},
	{"proc.cpu_sys_s", "s"},
	{"proc.gc_cycles", "count"},
	{"proc.gc_pause_ms", "ms"},
	{"gen.lag_p99_us", "us"},
	{"trace.overhead_ns_per_rec", "ns"},
	{"reconcile.layers_ns_per_rec", "ns"},
	{"reconcile.unexplained_ns_per_rec", "ns"},
}

// perLayer assembles the traced run's per-layer metrics: the pipeline's
// own counters, the benchmark's spans, and the layer replays of the
// captured input. base is the untraced pass of the same run.
func perLayer(base, traced *passResult, rep replayResult, passes layerPasses) map[string]metric {
	v := map[string]float64{}
	for k, x := range traced.layers {
		v[k] = x
	}
	v["sensor.notice_ns"] = traced.notice.P50
	if ns := traced.tracer.durations("exs.flush"); len(ns) > 0 && v["exs.recs_per_batch"] > 0 {
		v["exs.flush_ns"] = median(ns)
	}
	if ns := traced.tracer.durations("subscription.next"); len(ns) > 0 {
		v["subscribe.next_ns"] = median(ns)
	}
	v["subscribe.dropped"] = float64(traced.subDropped)
	v["subscribe.order_breaks"] = float64(traced.orderBreaks)
	v["proc.cpu_user_s"] = float64(traced.p1.userNs-traced.p0.userNs) / 1e9
	v["proc.cpu_sys_s"] = float64(traced.p1.sysNs-traced.p0.sysNs) / 1e9
	v["proc.gc_cycles"] = float64(traced.p1.gcCycles - traced.p0.gcCycles)
	v["proc.gc_pause_ms"] = (traced.p1.gcPauseSec - traced.p0.gcPauseSec) * 1e3
	v["gen.lag_p99_us"] = traced.lag.P99

	v["record.decode_ns_per_rec"] = rep.decode.ns
	v["record.decode_allocs_per_rec"] = rep.decode.allocs
	v["wire.send_ns_per_batch"] = rep.wireNsPerBatch
	v["ols.ns_per_rec"] = rep.ols.ns
	v["ols.allocs_per_rec"] = rep.ols.allocs
	v["cre.ns_per_rec"] = rep.cre.ns
	v["subscribe.publish_ns_per_rec"] = rep.sub.ns
	v["shm.publish_ns_per_rec"] = rep.shm.ns

	v["trace.overhead_ns_per_rec"] = traced.cpuNsPerRec() - base.cpuNsPerRec()
	v["reconcile.layers_ns_per_rec"] = rep.layersNsPerRec(passes)
	v["reconcile.unexplained_ns_per_rec"] = base.cpuNsPerRec() - v["reconcile.layers_ns_per_rec"]

	out := make(map[string]metric, len(layerUnits))
	for _, lu := range layerUnits {
		out[lu.name] = metric{Value: v[lu.name], Unit: lu.unit}
	}
	return out
}

func printLayers(w io.Writer, base, traced *passResult, m map[string]metric, rep replayResult, spanPath string) {
	fmt.Fprintf(w, "# traced pass: delivered_rps=%.1f cpu_ns_per_rec=%.1f (untraced %.1f); spans in %s\n",
		float64(traced.delivered)/traced.window, traced.cpuNsPerRec(), base.cpuNsPerRec(), spanPath)
	fmt.Fprintf(w, "# reconcile: cpu_ns_per_rec=%.1f = replayed layers %.1f (decode %.1f, ols %.1f, cre %.1f, shm %.1f, subscribe %.1f, wire %.1f/batch) + unexplained %.1f\n",
		base.cpuNsPerRec(), m["reconcile.layers_ns_per_rec"].Value,
		rep.decode.ns, rep.ols.ns, rep.cre.ns, rep.shm.ns, rep.sub.ns, rep.wireNsPerBatch,
		m["reconcile.unexplained_ns_per_rec"].Value)
	fmt.Fprintf(w, "# tracing overhead: %+.1f ns/rec\n", m["trace.overhead_ns_per_rec"].Value)
	for _, lu := range layerUnits {
		fmt.Fprintf(w, "%-34s %14.4f %s\n", lu.name, m[lu.name].Value, lu.unit)
	}
}
