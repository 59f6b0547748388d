package bench

import (
	"fmt"
	"runtime"
	"testing"
)

// TestRunSorterStage: the stage completes, conserves the record count,
// and names its row on the shard axis the bench gate keys on.
func TestRunSorterStage(t *testing.T) {
	r, err := RunSorterStage(1, 4, 2_000)
	if err != nil {
		t.Fatal(err)
	}
	if want := "sorter/shards=1"; r.Name != want {
		t.Fatalf("row name %q, want %q", r.Name, want)
	}
	if r.Records != 8_000 || r.RecordsPerSec <= 0 {
		t.Fatalf("row: %+v", r)
	}
}

// TestWriteBenchFileOmitsSkippedRows pins the bugfix: a skipped
// configuration is announced on the rendered table but never written to
// the JSON body, so downstream tooling cannot divide by its zero counts.
func TestWriteBenchFileOmitsSkippedRows(t *testing.T) {
	path := t.TempDir() + "/bench.json"
	rows := []IngestResult{
		{Name: "sorter/shards=1", Records: 100, RecordsPerSec: 1},
		{Name: "sorter/shards=4", Skipped: "GOMAXPROCS=1 < 4"},
	}
	if err := WriteBenchFile(path, rows); err != nil {
		t.Fatal(err)
	}
	f, err := ReadBenchFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Results) != 1 || f.Results[0].Name != "sorter/shards=1" {
		t.Fatalf("bench file kept %+v, want only the measured row", f.Results)
	}
}

// BenchmarkSorterStage measures the sorter stage with one op per record:
// b.N records go through 8 parallel pushers, the sharded sorter and the
// merger, so ns/op is the stage's cost per record. Shard scaling below
// 4 CPUs is not measurable; those sub-benchmarks SKIP, the same rule the
// bench gate applies.
func BenchmarkSorterStage(b *testing.B) {
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			if shards > 1 && runtime.GOMAXPROCS(0) < 4 {
				b.Skipf("GOMAXPROCS=%d < 4: shard scaling not measurable on this box", runtime.GOMAXPROCS(0))
			}
			st := newSorterStage(shards, 8)
			b.ReportAllocs()
			b.ResetTimer()
			if n := st.run(b.N); n != b.N {
				b.Fatalf("sorter emitted %d of %d", n, b.N)
			}
		})
	}
}
