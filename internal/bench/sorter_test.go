package bench

import (
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strings"
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

// TestWriteBenchFileRoundTrip: every row field and the env stamp survive
// a write and a read, a file of another schema is refused, and the
// committed baseline still reads with its session counts.
func TestWriteBenchFileRoundTrip(t *testing.T) {
	path := t.TempDir() + "/bench.json"
	rows := []IngestResult{
		{Name: "ingest/sessions=8", Sessions: 8, Records: 1024, ElapsedMicros: 500,
			RecordsPerSec: 2.048e6, MBPerSec: 81.9, AllocsPerRecord: 0.5},
		{Name: "subscribe/subscribers=64", Sessions: 1, Subscribers: 64, Records: 256, RecordsPerSec: 1},
		{Name: "sorter/shards=1", Sources: 8, Shards: 1, Records: 100, RecordsPerSec: 1},
	}
	if err := WriteBenchFile(path, rows); err != nil {
		t.Fatal(err)
	}
	f, err := ReadBenchFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f.Results, rows) {
		t.Fatalf("rows after round trip:\n%+v\nwant\n%+v", f.Results, rows)
	}
	if want := (BenchEnv{GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU()}); f.Env == nil || *f.Env != want {
		t.Fatalf("env stamp %+v, want %+v", f.Env, want)
	}

	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	other := strings.Replace(string(b), fmt.Sprintf(`"schema": %d`, BenchSchema), `"schema": 99`, 1)
	if err := os.WriteFile(path, []byte(other), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBenchFile(path); err == nil || !strings.Contains(err.Error(), "schema 99") {
		t.Fatalf("schema 99 file read with err = %v", err)
	}

	base, err := ReadBenchFile("../../BENCH_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	var sessions []int
	for _, r := range base.Results {
		sessions = append(sessions, r.Sessions)
	}
	if !reflect.DeepEqual(sessions, []int{1, 8}) {
		t.Fatalf("baseline session counts %v, want [1 8]", sessions)
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
