package main

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sort"
	"time"

	"brisk/internal/cre"
	"brisk/internal/metrics"
	"brisk/internal/ols"
	"brisk/internal/record"
	"brisk/internal/shm"
	"brisk/internal/subscribe"
	"brisk/internal/wire"
)

// replayReps is how many timed repetitions each layer replay runs; the
// median is reported.
const replayReps = 5

// replayInput is a workload's captured input, shaped as the layer the
// pipeline feeds it to receives it.
type replayInput struct {
	// payloads are wire batch payloads in arrival order: plain records
	// (DATA frames) or node-prefixed entries (RELAY_DATA frames).
	payloads     [][]byte
	nodePrefixed bool
	// sorted is the delivered stream in emission order.
	sorted []record.Record
	sorter ols.Config
	shards int
	// passes is how many times one record crosses each replayed layer on
	// its way to the root consumer (two ISMs in fanin).
	passes layerPasses
}

type layerPasses struct{ decode, ols, cre, shm, subscribe, wire float64 }

// layerCost is one layer's replayed cost per record.
type layerCost struct{ ns, allocs float64 }

// batchRecords re-encodes the captured stream into per-node DATA
// payloads of the size the external sensors shipped, in delivery order.
// The pipeline's own batches are not observable from outside, so this is
// the closest reconstruction of what the manager decoded.
func batchRecords(captured []record.Record, perBatch int) ([][]byte, error) {
	if perBatch < 1 {
		perBatch = 1
	}
	open := map[int32][]byte{}
	count := map[int32]int{}
	var out [][]byte
	for i := range captured {
		r := &captured[i]
		if record.IsLossMarker(r) {
			continue
		}
		buf, err := r.Append(open[r.Node])
		if err != nil {
			return nil, err
		}
		open[r.Node] = buf
		count[r.Node]++
		if count[r.Node] == perBatch {
			out = append(out, buf)
			open[r.Node], count[r.Node] = nil, 0
		}
	}
	nodes := make([]int32, 0, len(open))
	for node := range open {
		nodes = append(nodes, node)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	for _, node := range nodes {
		if len(open[node]) > 0 {
			out = append(out, open[node])
		}
	}
	return out, nil
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// measure runs f once to warm up, then replayReps timed times, and
// returns the median cost per record.
func measure(recs int, f func()) layerCost {
	f()
	var ns, al []float64
	for i := 0; i < replayReps; i++ {
		a0 := mallocs()
		t0 := time.Now()
		f()
		d := time.Since(t0)
		a1 := mallocs()
		ns = append(ns, float64(d.Nanoseconds())/float64(recs))
		al = append(al, float64(a1-a0)/float64(recs))
	}
	return layerCost{median(ns), median(al)}
}

// replayResult holds every replayed layer's cost.
type replayResult struct {
	decode, ols, cre, sub, shm layerCost
	wireNsPerBatch             float64
	recsPerBatch               float64
}

// layersNsPerRec sums the replayed layers' own cost per delivered record,
// weighted by how often a record crosses each.
func (r replayResult) layersNsPerRec(p layerPasses) float64 {
	wirePerRec := 0.0
	if r.recsPerBatch > 0 {
		wirePerRec = r.wireNsPerBatch / r.recsPerBatch
	}
	return p.decode*r.decode.ns + p.ols*r.ols.ns + p.cre*r.cre.ns +
		p.shm*r.shm.ns + p.subscribe*r.sub.ns + p.wire*wirePerRec
}

// discard is a wire transport that drops what it is sent.
type discard struct{}

func (discard) Read([]byte) (int, error)    { return 0, fmt.Errorf("discard: no input") }
func (discard) Write(p []byte) (int, error) { return len(p), nil }

// replay drives the captured input through each layer's exported entry
// point and times it.
func replay(in replayInput) (replayResult, error) {
	var res replayResult
	if len(in.payloads) == 0 || len(in.sorted) == 0 {
		return res, fmt.Errorf("replay: nothing captured")
	}

	// record: decode every payload into a recycled batch.
	decode := func(dst []record.Record, p []byte) ([]record.Record, error) {
		if in.nodePrefixed {
			return record.DecodeNodeAppend(dst, p)
		}
		return record.DecodeAppend(dst, p)
	}
	batches := make([][]record.Record, len(in.payloads))
	total := 0
	for i, p := range in.payloads {
		b, err := decode(nil, p)
		if err != nil {
			return res, fmt.Errorf("replay: decode: %w", err)
		}
		batches[i] = b
		total += len(b)
	}
	res.recsPerBatch = float64(total) / float64(len(batches))
	scratch := make([]record.Record, 0, 1024)
	res.decode = measure(total, func() {
		for _, p := range in.payloads {
			scratch, _ = decode(scratch[:0], p)
		}
	})

	// wire: frame and send every payload into a discarding transport.
	conn := wire.NewConn(discard{})
	var sendErr error
	wc := measure(len(in.payloads), func() {
		for i, p := range in.payloads {
			var m wire.Message = &wire.DataBatch{Seq: uint64(i + 1), Count: uint32(len(batches[i])), Payload: p}
			if in.nodePrefixed {
				m = &wire.RelayBatch{Seq: uint64(i + 1), Count: uint32(len(batches[i])), Payload: p}
			}
			if err := conn.Send(m); err != nil {
				sendErr = err
			}
		}
	})
	if sendErr != nil {
		return res, fmt.Errorf("replay: wire: %w", sendErr)
	}
	res.wireNsPerBatch = wc.ns

	// ols: push the decoded batches in arrival order on a virtual clock
	// that reads each batch's newest timestamp, extracting after each.
	var emitted int
	res.ols = measure(total, func() {
		sh := ols.NewSharded(in.sorter, in.shards)
		emitted = 0
		emit := func(record.Record) { emitted++ }
		var now int64
		for _, b := range batches {
			for i := range b {
				now = max(now, b[i].TS)
			}
			sh.PushMixed(b, now)
			sh.Extract(now, emit)
		}
		sh.Flush(emit)
	})
	if emitted != total {
		return res, fmt.Errorf("replay: sorter emitted %d of %d records", emitted, total)
	}

	// cre: the delivered stream in emission order.
	res.cre = measure(len(in.sorted), func() {
		m := cre.New(cre.Config{})
		emit := func(record.Record) {}
		for _, r := range in.sorted {
			m.Process(r, r.TS, emit)
		}
		m.Flush(emit)
	})

	// subscribe and shm: the sink-side encoding (4-byte node prefix +
	// record) the merger publishes, in flushes of 512.
	enc := make([][]byte, len(in.sorted))
	for i := range in.sorted {
		b := binary.BigEndian.AppendUint32(nil, uint32(in.sorted[i].Node))
		b, err := in.sorted[i].Append(b)
		if err != nil {
			return res, fmt.Errorf("replay: encode: %w", err)
		}
		enc[i] = b
	}
	const flushRecs = 512
	// The engine and the buffer persist across repetitions, as they do
	// in the manager, so the warm-up pass fills their storage.
	eng := subscribe.New(subscribe.Config{Metrics: metrics.NewRegistry()})
	defer eng.Close()
	res.sub = measure(len(in.sorted), func() {
		for i := range in.sorted {
			eng.Publish(&in.sorted[i], enc[i], in.sorted[i].TS)
			if i%flushRecs == flushRecs-1 {
				eng.EndFlush()
			}
		}
		eng.EndFlush()
	})
	buf := shm.NewBuffer(1 << 16)
	defer buf.Close()
	res.shm = measure(len(in.sorted), func() {
		for i := 0; i < len(enc); i += flushRecs {
			buf.PublishBatch(enc[i:min(i+flushRecs, len(enc))])
		}
	})
	return res, nil
}
