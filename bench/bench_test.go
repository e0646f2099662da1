package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// declared is the part of BENCHMARK.json the program must agree with.
type declared struct {
	Workloads []struct{ Name string }
	EndToEnd  []declaredMetric `json:"end_to_end"`
	PerLayer  []declaredMetric `json:"per_layer"`
}

type declaredMetric struct{ Name, Unit string }

func loadDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkMetrics holds a run's metrics to the declared list: every declared
// name exactly once with its unit, and nothing undeclared.
func checkMetrics(t *testing.T, rec record, want []declaredMetric) {
	t.Helper()
	if !rec.Correct {
		t.Errorf("%s: %d of %d operations failed: %s", rec.Workload, rec.Failed, rec.Attempted, strings.Join(rec.Failures, "; "))
	}
	if rec.Attempted < 1 {
		t.Errorf("%s: attempted %d", rec.Workload, rec.Attempted)
	}
	seen := map[string]bool{}
	for _, w := range want {
		if seen[w.Name] {
			t.Errorf("BENCHMARK.json declares %s twice", w.Name)
		}
		seen[w.Name] = true
		if !nameRE.MatchString(w.Name) {
			t.Errorf("metric name %q is outside [A-Za-z0-9_.-]", w.Name)
		}
		got, ok := rec.Metrics[w.Name]
		if !ok {
			t.Errorf("%s: metric %s is declared but was not emitted", rec.Workload, w.Name)
		} else if got.Unit != w.Unit {
			t.Errorf("%s: metric %s has unit %q, declared %q", rec.Workload, w.Name, got.Unit, w.Unit)
		}
	}
	for name := range rec.Metrics {
		if !seen[name] {
			t.Errorf("%s: metric %s was emitted but is not declared", rec.Workload, name)
		}
	}
}

// TestEndToEnd drives every workload once on the tiny configuration.
func TestEndToEnd(t *testing.T) {
	d := loadDeclared(t)
	var names []string
	for _, w := range d.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Fatalf("BENCHMARK.json workloads %v, program has %v", names, workloads)
	}
	for _, w := range workloads {
		rec, tr, err := run(tiny, w, 1, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		if tr != nil {
			t.Errorf("%s: an end-to-end run recorded spans", w)
		}
		checkMetrics(t, rec, d.EndToEnd)
		for name, m := range rec.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: %s = %v, end-to-end metrics are never 0", w, name, m.Value)
			}
		}
	}
	if _, _, err := run(tiny, "no-such-workload", 1, 0, false); err == nil {
		t.Error("an unknown workload was accepted")
	}
}

// TestTraced drives the traced phase (every probe, one span-wrapped pass
// over every workload) on two seeds.
func TestTraced(t *testing.T) {
	d := loadDeclared(t)
	rec, tr, err := run(tiny, reportCold, 1, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	checkMetrics(t, rec, d.PerLayer)

	roots := map[int]bool{}
	for i, s := range tr.spans {
		if s.ID != i+1 {
			t.Fatalf("span %d has id %d", i+1, s.ID)
		}
		if s.End < s.Start {
			t.Errorf("span %d %q ends before it starts", s.ID, s.Name)
		}
		if s.Parent == 0 {
			if s.Iter != s.ID {
				t.Errorf("root span %d carries iteration id %d", s.ID, s.Iter)
			}
			roots[s.ID] = true
			continue
		}
		if s.Parent >= s.ID {
			t.Fatalf("span %d has parent %d, which does not exist yet", s.ID, s.Parent)
		}
		p := tr.spans[s.Parent-1]
		if s.Iter != p.Iter || !roots[s.Iter] {
			t.Errorf("span %d is in iteration %d, its parent in %d", s.ID, s.Iter, p.Iter)
		}
		if s.Workload != p.Workload {
			t.Errorf("span %d belongs to %s, its parent to %s", s.ID, s.Workload, p.Workload)
		}
	}
	for _, w := range workloads {
		if len(tr.seconds(w, map[string]string{
			reportCold: "report", reportWarm: "report", traceSweep: "sweep", serveMix: "hot round",
		}[w])) == 0 {
			t.Errorf("no iteration span for %s", w)
		}
	}

	// The seed picks the request sequence and the sampled lines, never the
	// simulated statistics.
	other, _, err := run(tiny, reportCold, 2, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	for name, m := range rec.Metrics {
		if strings.HasPrefix(name, "sim.") && other.Metrics[name] != m {
			t.Errorf("%s is %v on seed 1 and %v on seed 2", name, m.Value, other.Metrics[name].Value)
		}
	}
	if reflect.DeepEqual(hotSequence(newRand(1), 96, 64), hotSequence(newRand(2), 96, 64)) {
		t.Error("seeds 1 and 2 draw the same serve-mix sequence")
	}
}

// TestQuantile pins the quartile rule to Python's statistics.quantiles,
// which the acceptance rule is written in.
func TestQuantile(t *testing.T) {
	data := []float64{1, 2, 4, 7, 11, 16, 22, 29, 37, 46}
	s := summarize(data)
	// statistics.quantiles([1,2,4,7,11,16,22,29,37,46], n=4) == [3.5, 13.5, 31.0]
	if s.Q1 != 3.5 || s.Median != 13.5 || s.Q3 != 31 {
		t.Errorf("quartiles %v %v %v, want 3.5 13.5 31", s.Q1, s.Median, s.Q3)
	}
	if got := summarize([]float64{3, 1, 2}).Median; got != 2 {
		t.Errorf("median of three = %v", got)
	}
}
