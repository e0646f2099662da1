package core

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func smallResults(t *testing.T) *Results {
	t.Helper()
	res, err := CollectResults(ReportOptions{
		Apps:       []string{"lu", "radix"},
		Procs:      4,
		ProcList:   []int{1, 4},
		Scale:      SweepScale,
		CacheSizes: []int{16 << 10, 1 << 20},
		LineSizes:  []int{64},
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestCollectResultsComplete(t *testing.T) {
	res := smallResults(t)
	if len(res.Table1) != 2 || len(res.Speedups) != 2 || len(res.Sync) != 2 {
		t.Fatalf("incomplete results: %+v", res)
	}
	if len(res.MissCurves) != 2 || len(res.Table2) != 2 || len(res.PruneAdvice) != 2 {
		t.Fatalf("incomplete working-set results")
	}
	if len(res.Traffic) != 2 || len(res.Table3) != 2 || len(res.LineSize) != 2 {
		t.Fatalf("incomplete traffic results")
	}
}

// TestCollectResultsAllAssocs: -all-assocs reaches the exported data —
// four curves per program — while Table 2 and the pruning advice stay
// derived from the four-way curves alone.
func TestCollectResultsAllAssocs(t *testing.T) {
	e, _ := NewEngine(EngineOptions{Workers: 2})
	o := ReportOptions{
		Apps: []string{"lu", "radix"}, Procs: 4, ProcList: []int{1, 4}, Scale: SweepScale,
		CacheSizes: []int{16 << 10, 1 << 20}, LineSizes: []int{64},
	}
	four, err := e.CollectResults(o)
	if err != nil {
		t.Fatal(err)
	}
	o.AllAssocs = true
	all, err := e.CollectResults(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(all.MissCurves) != 4*len(o.Apps) {
		t.Fatalf("all-assocs curves = %d, want %d", len(all.MissCurves), 4*len(o.Apps))
	}
	if !reflect.DeepEqual(all.Table2, four.Table2) || !reflect.DeepEqual(all.PruneAdvice, four.PruneAdvice) {
		t.Error("all-assocs changed Table 2 or the pruning advice")
	}
}

func TestWriteJSONRoundTrips(t *testing.T) {
	res := smallResults(t)
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Results
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Procs != res.Procs || len(back.Table1) != len(res.Table1) {
		t.Fatal("JSON round trip lost data")
	}
	if back.Table1[0].Instr != res.Table1[0].Instr {
		t.Fatal("JSON round trip changed values")
	}
}

func TestWriteCSVSections(t *testing.T) {
	res := smallResults(t)
	var buf bytes.Buffer
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, section := range []string{"#section table1", "#section speedups", "#section sync", "#section missCurves", "#section traffic", "#section lineSize"} {
		if !strings.Contains(out, section) {
			t.Fatalf("CSV missing %q", section)
		}
	}
	// Row counts: table1 has one row per app.
	lines := strings.Split(out, "\n")
	inTable1 := false
	rows := 0
	for _, l := range lines {
		if strings.HasPrefix(l, "#section") {
			inTable1 = strings.Contains(l, "table1")
			continue
		}
		if inTable1 && l != "" && !strings.HasPrefix(l, "app,") {
			rows++
		}
	}
	if rows != 2 {
		t.Fatalf("table1 rows = %d, want 2", rows)
	}
}
