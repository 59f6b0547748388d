package bench

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"time"

	"brisk/internal/ism"
	"brisk/internal/ols"
	"brisk/internal/record"
	"brisk/internal/wire"
)

// IngestResult is one configuration of the manager-side ingest benchmark:
// N synthetic sessions flood the manager with pre-encoded record batches
// over TCP, and the decode → merge → sort → sink path is measured end to
// end at the manager. The clients reuse one pre-encoded payload, so the
// manager is the bottleneck and the number reported is the ISM's ingest
// capacity, not the sensors'.
type IngestResult struct {
	Name            string  `json:"name"`
	Sessions        int     `json:"sessions"`
	Shards          int     `json:"shards,omitempty"`
	Records         int     `json:"records"`
	ElapsedMicros   int64   `json:"elapsed_micros"`
	RecordsPerSec   float64 `json:"records_per_sec"`
	MBPerSec        float64 `json:"mb_per_sec"`
	AllocsPerRecord float64 `json:"allocs_per_record"`
	// Skipped, when non-empty, says why this configuration was not run
	// on this box (e.g. a shard-scaling number that would be misleading
	// without enough CPUs). Skipped rows carry no numbers and are
	// excluded from baseline comparison.
	Skipped string `json:"skipped,omitempty"`
}

// BenchEnv records the machine a bench file was produced on, so numbers
// from incomparable boxes are never compared silently.
type BenchEnv struct {
	GOMAXPROCS int `json:"gomaxprocs"`
	NumCPU     int `json:"num_cpu"`
}

// BenchFile is the JSON layout of BENCH_baseline.json (the committed
// reference numbers) and BENCH_current.json (the bench-check gate's
// per-run output, compared against the baseline and never committed).
type BenchFile struct {
	Schema int `json:"schema"`
	// Env is the producing machine; absent in files written before it
	// was recorded.
	Env     *BenchEnv      `json:"env,omitempty"`
	Results []IngestResult `json:"results"`
}

// BenchSchema versions the BenchFile layout.
const BenchSchema = 1

// RunIngest floods a manager with pre-encoded record batches from
// `sessions` synthetic sensors and reports the sustained delivery rate at
// the sinks, plus the whole-process allocation cost per record.
func RunIngest(sessions, perSession, batchRecords int) (IngestResult, error) {
	if sessions <= 0 {
		sessions = 1
	}
	if perSession <= 0 {
		perSession = 150_000
	}
	if batchRecords <= 0 {
		batchRecords = 256
	}
	batches := perSession / batchRecords
	if batches == 0 {
		batches = 1
	}
	perSession = batches * batchRecords
	total := sessions * perSession

	m, err := ism.New(ism.Config{
		Addr:              "127.0.0.1:0",
		MergeInterval:     time.Millisecond,
		BufferRecords:     1 << 16,
		Sorter:            ols.Config{InitialT: 100},
		HeartbeatInterval: -1,
		Logf:              quiet,
	})
	if err != nil {
		return IngestResult{}, err
	}
	m.Start()
	defer m.Close()

	// The evaluation record: an embedded timestamp plus six ints, 40 bytes
	// on the wire. Stamped well in the past so extraction never waits on T.
	ts := time.Now().UnixMicro() - 10_000_000
	var payload []byte
	for i := 0; i < batchRecords; i++ {
		rec := record.New(1,
			record.TSVal(ts),
			record.I32Val(int32(i)), record.I32Val(2), record.I32Val(3),
			record.I32Val(4), record.I32Val(5), record.I32Val(6))
		payload, err = rec.Append(payload)
		if err != nil {
			return IngestResult{}, err
		}
	}

	conns := make([]*wire.Conn, sessions)
	for i := range conns {
		raw, err := net.Dial("tcp", m.Addr())
		if err != nil {
			return IngestResult{}, err
		}
		defer raw.Close()
		wc := wire.NewConn(raw)
		if err := wc.Send(&wire.Hello{Version: wire.ProtocolVersion, Name: "bench"}); err != nil {
			return IngestResult{}, err
		}
		if _, err := wc.Recv(); err != nil {
			return IngestResult{}, fmt.Errorf("bench: hello ack: %w", err)
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
	for int(m.Stats().Emitted) < total && time.Now().Before(deadline) {
		time.Sleep(200 * time.Microsecond)
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)
	select {
	case err := <-errs:
		return IngestResult{}, err
	default:
	}
	st := m.Stats()
	if int(st.Emitted) < total {
		return IngestResult{}, fmt.Errorf("bench: manager emitted %d of %d", st.Emitted, total)
	}
	return IngestResult{
		Name:            fmt.Sprintf("ingest/sessions=%d", sessions),
		Sessions:        sessions,
		Records:         total,
		ElapsedMicros:   elapsed.Microseconds(),
		RecordsPerSec:   float64(total) / elapsed.Seconds(),
		MBPerSec:        float64(st.BytesIn) / 1e6 / elapsed.Seconds(),
		AllocsPerRecord: float64(ms1.Mallocs-ms0.Mallocs) / float64(total),
	}, nil
}

// RunIngestSuite runs the ingest benchmark at each session count.
func RunIngestSuite(sessionCounts []int, perSession, batchRecords int) ([]IngestResult, error) {
	if len(sessionCounts) == 0 {
		sessionCounts = []int{1, 8}
	}
	var out []IngestResult
	for _, n := range sessionCounts {
		r, err := RunIngest(n, perSession, batchRecords)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// IngestTable renders the suite.
func IngestTable(rows []IngestResult) *Table {
	t := &Table{
		Title:  "ingest: manager decode→merge→sink capacity vs session count",
		Header: []string{"sessions", "records", "elapsed", "records/s", "MB/s", "allocs/record"},
	}
	for _, r := range rows {
		t.Add(r.Sessions, r.Records,
			(time.Duration(r.ElapsedMicros) * time.Microsecond).Round(time.Millisecond),
			r.RecordsPerSec, r.MBPerSec, r.AllocsPerRecord)
	}
	return t
}

// WriteBenchFile writes the suite results as a bench-check reference
// file, stamped with the producing machine's CPU budget. Skipped rows
// are omitted from the file entirely — they carry no numbers, and a
// `records: 0` row in the JSON invites downstream tooling to divide by
// zero; the skip reason still appears on the rendered table and in the
// gate's log.
func WriteBenchFile(path string, results []IngestResult) error {
	kept := make([]IngestResult, 0, len(results))
	for _, r := range results {
		if r.Skipped == "" {
			kept = append(kept, r)
		}
	}
	f := BenchFile{
		Schema:  BenchSchema,
		Env:     &BenchEnv{GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU()},
		Results: kept,
	}
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ReadBenchFile loads a bench-check reference file.
func ReadBenchFile(path string) (BenchFile, error) {
	var f BenchFile
	b, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != BenchSchema {
		return f, fmt.Errorf("%s: schema %d, want %d", path, f.Schema, BenchSchema)
	}
	return f, nil
}

// CompareBench checks the current results against a baseline: every
// baseline configuration must be present, within maxLoss fractional
// throughput regression, and within allocSlack extra allocations per
// record (absolute; the exact zero-allocation floor is asserted separately
// by the AllocsPerRun tests, this guards the whole-process number against
// reintroduced hot-path allocations while tolerating GC/runtime noise).
// It returns a description of each violation, empty when the gate passes.
func CompareBench(baseline, current []IngestResult, maxLoss, allocSlack float64) []string {
	cur := make(map[string]IngestResult, len(current))
	for _, r := range current {
		cur[r.Name] = r
	}
	var bad []string
	for _, b := range baseline {
		if b.Skipped != "" {
			continue
		}
		c, ok := cur[b.Name]
		if !ok {
			bad = append(bad, fmt.Sprintf("%s: missing from current run", b.Name))
			continue
		}
		// A configuration this box cannot run honestly is announced, not
		// compared: a SKIP row beats a misleading number.
		if c.Skipped != "" {
			continue
		}
		if c.RecordsPerSec < b.RecordsPerSec*(1-maxLoss) {
			bad = append(bad, fmt.Sprintf("%s: throughput %.0f rec/s is %.1f%% below baseline %.0f",
				b.Name, c.RecordsPerSec, 100*(1-c.RecordsPerSec/b.RecordsPerSec), b.RecordsPerSec))
		}
		if c.AllocsPerRecord > b.AllocsPerRecord+allocSlack {
			bad = append(bad, fmt.Sprintf("%s: %.2f allocs/record exceeds baseline %.2f (+%.2f slack)",
				b.Name, c.AllocsPerRecord, b.AllocsPerRecord, allocSlack))
		}
	}
	return bad
}
