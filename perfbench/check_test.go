package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"

	"brisk/internal/record"
)

func rec(src, seq int32, ts int64) record.Record {
	return record.New(evData, record.TSVal(ts), record.I32Val(src), record.I32Val(seq))
}

// cleanStream interleaves two sources, ten records each, in timestamp
// order.
func cleanStream() []record.Record {
	var out []record.Record
	for seq := int32(0); seq < 10; seq++ {
		for src := int32(0); src < 2; src++ {
			out = append(out, rec(src, seq, int64(100+10*seq+src)))
		}
	}
	return out
}

func check(stream []record.Record, a accounting) []string {
	c := newChecker(2, nil)
	for i := range stream {
		c.observe(&stream[i])
	}
	if a.issued == nil {
		a.issued = []int64{10, 10}
	}
	return c.finish(a)
}

func wantProblem(t *testing.T, problems []string, substr string) {
	t.Helper()
	for _, p := range problems {
		if strings.Contains(p, substr) {
			return
		}
	}
	t.Fatalf("want a %q problem, got %q", substr, problems)
}

func TestCheckerPassesCleanStream(t *testing.T) {
	if p := check(cleanStream(), accounting{}); len(p) != 0 {
		t.Fatalf("clean stream flagged: %q", p)
	}
}

func TestCheckerCatchesReorderedRecord(t *testing.T) {
	s := cleanStream()
	s[4], s[6] = s[6], s[4] // source 0: seq 3 before seq 2
	wantProblem(t, check(s, accounting{inversions: 1}), "per-source FIFO")
}

func TestCheckerCatchesDuplicateRecord(t *testing.T) {
	s := cleanStream()
	s = append(s[:5], append([]record.Record{s[4]}, s[5:]...)...)
	p := check(s, accounting{})
	wantProblem(t, p, "per-source FIFO")
	wantProblem(t, p, "delivered 11 of 10")
}

func TestCheckerCatchesMissingRecord(t *testing.T) {
	s := cleanStream()
	s = append(s[:7], s[8:]...)
	wantProblem(t, check(s, accounting{}), "conservation")
}

func TestCheckerAcceptsMarkedLoss(t *testing.T) {
	s := cleanStream()
	s[7] = record.NewLossMarker(1, 130, 130)
	if p := check(s, accounting{sorterDrops: 1}); len(p) != 0 {
		t.Fatalf("marker-covered loss flagged: %q", p)
	}
}

func TestCheckerDiscountsRetriedRingRefusals(t *testing.T) {
	s := append(cleanStream(), record.NewLossMarker(5, 200, 200))
	if p := check(s, accounting{ringRetried: 5}); len(p) != 0 {
		t.Fatalf("retried refusals flagged: %q", p)
	}
	wantProblem(t, check(s, accounting{}), "conservation")
}

func TestCheckerCatchesTimestampDisorder(t *testing.T) {
	s := cleanStream()
	s[9].SetTS(50)
	wantProblem(t, check(s, accounting{}), "emission order")
	if p := check(s, accounting{inversions: 1}); len(p) != 0 {
		t.Fatalf("disorder with a reported inversion flagged: %q", p)
	}
}

func TestCheckerCatchesConsequenceBeforeReason(t *testing.T) {
	s := []record.Record{
		record.New(evConseq, record.TSVal(100), record.ConseqVal(7), record.I32Val(1), record.I32Val(0)),
		record.New(evReason, record.TSVal(101), record.ReasonVal(7), record.I32Val(0), record.I32Val(0)),
	}
	wantProblem(t, check(s, accounting{issued: []int64{1, 1}}), "causality")
	s[0], s[1] = s[1], s[0]
	if p := check(s, accounting{issued: []int64{1, 1}}); len(p) != 0 {
		t.Fatalf("reason before consequence flagged: %q", p)
	}
}

func TestCompareSub(t *testing.T) {
	want := []uint64{packKey(0, 0), packKey(1, 0), packKey(0, 1), packKey(1, 1)}
	if msg, breaks := compareSub("s", want, want, 0); msg != "" || breaks != 0 {
		t.Fatalf("equal streams: %q, %d breaks", msg, breaks)
	}
	if msg, _ := compareSub("s", want, want[:3], 0); msg == "" {
		t.Fatal("missing record not caught")
	}
	if msg, _ := compareSub("s", want, want[1:], 1); msg != "" {
		t.Fatalf("marker-covered subscriber drop flagged: %q", msg)
	}
	if msg, _ := compareSub("s", want, want, 2); msg != "" {
		t.Fatalf("over-covering subscriber marker flagged: %q", msg)
	}
	dup := []uint64{want[0], want[1], want[2], want[2]}
	if msg, _ := compareSub("s", want, dup, 0); msg == "" {
		t.Fatal("duplicate not caught")
	}
	sameSource := []uint64{want[2], want[1], want[0], want[3]}
	if msg, _ := compareSub("s", want, sameSource, 0); msg == "" {
		t.Fatal("per-source reorder not caught")
	}
	crossSource := []uint64{want[0], want[2], want[1], want[3]}
	if msg, breaks := compareSub("s", want, crossSource, 0); msg != "" || breaks != 1 {
		t.Fatalf("cross-source reorder: %q, %d breaks, want 1", msg, breaks)
	}
}

// TestBenchmarkJSONMatchesOutput keeps BENCHMARK.json's metric lists in
// step with what the command prints.
func TestBenchmarkJSONMatchesOutput(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(sortedKeys(workloads), ","); sortedJoin(names) != want {
		t.Errorf("workloads %s, command has %s", got, want)
	}
	e2e := endToEnd(&passResult{snaps: []procSnap{{}, {}}, dels: []int64{0, 1}, setupS: []float64{1}})
	if len(b.EndToEnd) != len(e2e) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, the command prints %d", len(b.EndToEnd), len(e2e))
	}
	for _, m := range b.EndToEnd {
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s (%s): printed as %+v", m.Name, m.Unit, got)
		}
	}
	if len(b.PerLayer) != len(layerUnits) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the command prints %d", len(b.PerLayer), len(layerUnits))
	}
	for i, m := range b.PerLayer {
		if i < len(layerUnits) && (layerUnits[i].name != m.Name || layerUnits[i].unit != m.Unit) {
			t.Errorf("per-layer %d: BENCHMARK.json %s (%s), command %s (%s)", i, m.Name, m.Unit, layerUnits[i].name, layerUnits[i].unit)
		}
	}
}

func sortedJoin(xs []string) string {
	c := append([]string(nil), xs...)
	sort.Strings(c)
	return strings.Join(c, ",")
}

func TestCheckerConsequencesLeaveInReasonOrder(t *testing.T) {
	conseq := func(seq int32, id uint64, ts int64) record.Record {
		return record.New(evConseq, record.TSVal(ts), record.ConseqVal(id), record.I32Val(1), record.I32Val(seq))
	}
	reason := func(seq int32, id uint64, ts int64) record.Record {
		return record.New(evReason, record.TSVal(ts), record.ReasonVal(id), record.I32Val(0), record.I32Val(seq))
	}
	// Consequence 1 waited for its reason; consequence 2's reason came first.
	s := []record.Record{reason(0, 2, 100), conseq(1, 2, 101), reason(1, 1, 102), conseq(0, 1, 103)}
	if p := check(s, accounting{issued: []int64{2, 2}}); len(p) != 0 {
		t.Fatalf("consequences in reason order flagged: %q", p)
	}
	s = append(s, conseq(0, 1, 104))
	wantProblem(t, check(s, accounting{issued: []int64{2, 2}}), "per-source FIFO")
}
