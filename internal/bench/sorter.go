package bench

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"brisk/internal/ols"
	"brisk/internal/record"
)

// sorterStage is the sorter-stage workload: parallel per-source pushers
// feed pre-built records into a sharded sorter while a single merger
// loop extracts the k-way-merged output, mirroring the manager's
// decode-workers/merger split without the wire and decode cost.
type sorterStage struct {
	sh     *ols.Sharded
	protos []record.Record // one reusable record per source
}

func newSorterStage(shards, sources int) *sorterStage {
	// Fixed tiny T: every record is past its deadline the moment it
	// arrives, so the merger is always busy and the measurement is pure
	// sorter+merge throughput, not window latency.
	st := &sorterStage{
		sh:     ols.NewSharded(ols.Config{InitialT: 1, Grow: ols.GrowFixed}, shards),
		protos: make([]record.Record, sources),
	}
	for i := range st.protos {
		st.protos[i] = record.New(1,
			record.TSVal(0),
			record.I32Val(int32(i)), record.I32Val(2), record.I32Val(3),
			record.I32Val(4), record.I32Val(5), record.I32Val(6))
	}
	return st
}

// run pushes total records, split as evenly as possible across the
// sources, drains the sorter and returns how many records it emitted.
func (st *sorterStage) run(total int) int {
	sources := len(st.protos)
	var wg sync.WaitGroup
	for i := 0; i < sources; i++ {
		n := total / sources
		if i < total%sources {
			n++
		}
		wg.Add(1)
		go func(src int32, n int) {
			defer wg.Done()
			r := st.protos[src-1]
			for j := 0; j < n; j++ {
				// Interleaved globally-unique timestamps, already aged
				// far past T at push time.
				ts := int64(j)*int64(sources) + int64(src)
				r.SetTS(ts)
				st.sh.Push(src, r, ts+1_000_000)
			}
		}(int32(i+1), n)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	emitted := 0
	emit := func(record.Record) { emitted++ }
	horizon := int64(total) + int64(sources) + 2_000_000
	for {
		select {
		case <-done:
			st.sh.Flush(emit)
			return emitted
		default:
			st.sh.Extract(horizon, emit)
		}
	}
}

// RunSorterStage measures the on-line sorter stage in isolation: `sources`
// parallel pushers of `perSource` records each against one merger. This
// is the number that should scale with shard count on multi-core
// machines; the end-to-end ingest benchmark dilutes it with TCP and
// decode work.
func RunSorterStage(shards, sources, perSource int) (IngestResult, error) {
	if shards <= 0 {
		shards = 1
	}
	if sources <= 0 {
		sources = 8
	}
	if perSource <= 0 {
		perSource = 100_000
	}
	total := sources * perSource
	st := newSorterStage(shards, sources)

	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	emitted := st.run(total)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)
	if emitted != total {
		return IngestResult{}, fmt.Errorf("bench: sorter emitted %d of %d", emitted, total)
	}
	return IngestResult{
		Name:            fmt.Sprintf("sorter/shards=%d", shards),
		Sources:         sources,
		Shards:          shards,
		Records:         total,
		ElapsedMicros:   elapsed.Microseconds(),
		RecordsPerSec:   float64(total) / elapsed.Seconds(),
		AllocsPerRecord: float64(ms1.Mallocs-ms0.Mallocs) / float64(total),
	}, nil
}

// RunSorterSuite runs the sorter-stage benchmark at each shard count.
func RunSorterSuite(shardCounts []int, sources, perSource int) ([]IngestResult, error) {
	return runSuite(shardCounts, func(n int) (IngestResult, error) {
		return RunSorterStage(n, sources, perSource)
	})
}

// SorterTable renders the sorter-stage suite.
func SorterTable(rows []IngestResult) *Table {
	t := &Table{
		Title:  "sorter: shard→merge stage throughput vs shard count",
		Header: []string{"shards", "sources", "records", "elapsed", "records/s", "allocs/record"},
	}
	for _, r := range rows {
		t.Add(r.Shards, r.Sources, r.Records,
			(time.Duration(r.ElapsedMicros) * time.Microsecond).Round(time.Millisecond),
			r.RecordsPerSec, r.AllocsPerRecord)
	}
	return t
}
