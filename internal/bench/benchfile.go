package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
)

// IngestResult is one row of the bench-check suites: a flood of the
// manager (ingest), of a relay (relay), of a tapped manager (subscribe),
// or the sorter stage alone (sorter).
type IngestResult struct {
	Name string `json:"name"`
	// Sessions counts wire sessions flooding the pipeline; 0 for the
	// sorter stage, which has no wire.
	Sessions int `json:"sessions"`
	// Subscribers counts the idle readers of a subscribe row.
	Subscribers int `json:"subscribers,omitempty"`
	// Sources counts the parallel pushers of a sorter row.
	Sources         int     `json:"sources,omitempty"`
	Shards          int     `json:"shards,omitempty"`
	Records         int     `json:"records"`
	ElapsedMicros   int64   `json:"elapsed_micros"`
	RecordsPerSec   float64 `json:"records_per_sec"`
	MBPerSec        float64 `json:"mb_per_sec"`
	AllocsPerRecord float64 `json:"allocs_per_record"`
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

// WriteBenchFile writes the suite results as a bench-check reference
// file, stamped with the producing machine's CPU budget.
func WriteBenchFile(path string, results []IngestResult) error {
	f := BenchFile{
		Schema:  BenchSchema,
		Env:     &BenchEnv{GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU()},
		Results: results,
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
		c, ok := cur[b.Name]
		if !ok {
			bad = append(bad, fmt.Sprintf("%s: missing from current run", b.Name))
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
