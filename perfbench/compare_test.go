package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// series10 returns ten values base+i*step.
func series10(base, step float64) []float64 {
	v := make([]float64, 10)
	for i := range v {
		v[i] = base + float64(i)*step
	}
	return v
}

func TestVerdictRule(t *testing.T) {
	parent := series10(100, 1) // median 104.5, IQR 5.5
	cases := []struct {
		name   string
		change []float64
		higher bool
		bound  float64
		want   string
	}{
		{"clear gain, lower is better", series10(80, 1), false, 0.1, improved},
		{"clear gain, higher is better", series10(120, 1), true, 0.1, improved},
		{"noise", series10(100.5, 1), false, 0.1, unchanged},
		{"worse beyond the bound", series10(120, 1), false, 0.1, regressed},
		{"worse within the bound", series10(103, 1), false, 0.1, unchanged},
		{"spread wider than the bound", []float64{60, 150, 70, 140, 80, 130, 90, 120, 100, 110}, false, 0.1, unresolved},
		{"gap inside the parent's spread", series10(99, 1), false, 0.1, unchanged},
		{"unbounded and unclear", series10(101, 1), false, 0, unresolved},
		{"unbounded and clearly worse", series10(120, 1), false, 0, regressed},
	}
	for _, c := range cases {
		if got, _, _ := verdict(parent, c.change, c.higher, c.bound); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}

	// Eight wins in ten pairs is not enough for a gain, however large.
	change := series10(80, 1)
	change[0], change[1] = 200, 200
	if got, wins, pairs := verdict(parent, change, false, 0.5); got == improved || wins != 8 || pairs != 10 {
		t.Errorf("8/10 wins: verdict %s with %d/%d", got, wins, pairs)
	}
	// Ties count for neither side.
	if _, wins, _ := verdict(parent, parent, false, 0.1); wins != 0 {
		t.Errorf("identical runs won %d pairs", wins)
	}
	// A gain needs ten pairs.
	if got, _, _ := verdict(parent[:5], series10(80, 1)[:5], false, 0.1); got == improved {
		t.Errorf("five pairs claimed a gain")
	}
}

// TestInterleaved: only parent and change runs taken alternately may be
// compared.
func TestInterleaved(t *testing.T) {
	at := func(minutes ...int) []time.Time {
		var out []time.Time
		for _, m := range minutes {
			out = append(out, time.Date(2026, 1, 1, 0, m, 0, 0, time.UTC))
		}
		return out
	}
	cases := []struct {
		name           string
		parent, change []time.Time
		want           bool
	}{
		{"parent first, alternating", at(0, 2, 4), at(1, 3, 5), true},
		{"change first, alternating", at(1, 3, 5), at(0, 2, 4), true},
		{"one extra parent run at the end", at(0, 2, 4), at(1, 3), true},
		{"two blocks", at(0, 1, 2), at(3, 4, 5), false},
		{"two parent runs in a row midway", at(0, 2, 3), at(1, 4, 5), false},
		{"a run without a start time", append(at(0, 2), time.Time{}), at(1, 3, 5), false},
	}
	for _, c := range cases {
		if got := interleaved(c.parent, c.change); got != c.want {
			t.Errorf("%s: interleaved %v, want %v", c.name, got, c.want)
		}
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json's metric lists and
// the metrics the benchmark emits in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the code %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json %v, code %v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer())
	ws := workloads()
	if len(doc.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(doc.Workloads), len(ws))
	}
	for i, w := range ws {
		if doc.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %s, code %s", i, doc.Workloads[i].Name, w.name)
		}
	}
}
