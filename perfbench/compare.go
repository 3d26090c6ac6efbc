package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"time"
)

// direction says which way a metric improves and by how much it may
// worsen (bound, a share of the parent's median; 0 = no bound).
type direction struct {
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// serveOnly are the serve-mixed metrics printed in the record but not
// listed in BENCHMARK.json, which only lists metrics every workload has.
var serveOnly = map[string]direction{
	"hit_p50_ms":   {Better: "lower"},
	"hit_p99_ms":   {Better: "lower"},
	"job_p50_ms":   {Better: "lower"},
	"job_p99_ms":   {Better: "lower"},
	"slo_share":    {Better: "higher"},
	"capacity_rps": {Better: "higher"},
}

// Verdicts.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved"
	// notInterleaved replaces the verdict of a row whose parent and
	// change runs did not alternate in time.
	notInterleaved = "invalid: runs not interleaved"
)

// minPairs is the fewest pairs a gain may rest on.
const minPairs = 10

// verdict applies the comparison rule to one (metric, workload) row.
// A gain needs at least minPairs pairs, the change winning nine tenths
// of them (ties count for neither side), and a median gap wider than the
// parent's interquartile range. A bounded metric regresses when the
// change's median is worse than the parent's by more than the bound; it
// is unresolved when either side's spread exceeds the bound, unless
// every change run beats every parent run. An unbounded metric is only
// ever improved, regressed by the mirror of the gain rule, or
// unresolved.
func verdict(parent, change []float64, higherBetter bool, bound float64) (v string, wins, pairs int) {
	pairs = min(len(parent), len(change))
	better := func(c, p float64) bool {
		if higherBetter {
			return c > p
		}
		return c < p
	}
	losses := 0
	for i := 0; i < pairs; i++ {
		switch {
		case better(change[i], parent[i]):
			wins++
		case better(parent[i], change[i]):
			losses++
		}
	}
	pq1, pmed, pq3 := quartiles(parent)
	cq1, cmed, cq3 := quartiles(change)
	gain := pmed - cmed
	if higherBetter {
		gain = -gain
	}
	piqr := pq3 - pq1
	if pairs >= minPairs && wins*10 >= 9*pairs && gain > piqr {
		return improved, wins, pairs
	}
	if bound == 0 {
		if pairs >= minPairs && losses*10 >= 9*pairs && -gain > piqr {
			return regressed, wins, pairs
		}
		return unresolved, wins, pairs
	}
	scale := math.Abs(pmed)
	if -gain > bound*scale {
		return regressed, wins, pairs
	}
	if math.Max(piqr, cq3-cq1) > bound*scale && !allBetter(parent, change, better) {
		return unresolved, wins, pairs
	}
	return unchanged, wins, pairs
}

// allBetter reports whether every change value beats every parent value.
func allBetter(parent, change []float64, better func(c, p float64) bool) bool {
	for _, c := range change {
		for _, p := range parent {
			if !better(c, p) {
				return false
			}
		}
	}
	return len(change) > 0 && len(parent) > 0
}

// readRecords collects the "record " lines of benchmark output files.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line, ok := strings.CutPrefix(sc.Text(), "record ")
		if !ok {
			continue
		}
		var r record
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// readDirections reads each metric's direction and bound from
// BENCHMARK.json.
func readDirections(path string) (map[string]direction, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []struct {
			Name string `json:"name"`
			direction
		} `json:"end_to_end"`
		PerLayer []struct {
			Name string `json:"name"`
			direction
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]direction)
	for n, d := range serveOnly {
		out[n] = d
	}
	for _, m := range doc.EndToEnd {
		out[m.Name] = m.direction
	}
	for _, m := range doc.PerLayer {
		out[m.Name] = m.direction
	}
	return out, nil
}

// interleaved reports whether the parent's and the change's runs
// alternate in time (parent, change, parent, … or the reverse), so that
// a slow drift of the machine's speed falls on both sides alike. A run
// without a start time counts as not interleaved.
func interleaved(parent, change []time.Time) bool {
	type run struct {
		t      time.Time
		parent bool
	}
	var all []run
	for i, side := range [][]time.Time{parent, change} {
		for _, t := range side {
			if t.IsZero() {
				return false
			}
			all = append(all, run{t, i == 0})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].t.Before(all[j].t) })
	for i := 1; i < len(all); i++ {
		if all[i].parent == all[i-1].parent {
			return false
		}
	}
	return true
}

// series holds one side's values of a (workload, traced, metric) row in
// file order, with the start time of each value's run.
type series struct {
	values []float64
	times  []time.Time
}

// group collects records' metric values by (workload, traced, metric).
func group(recs []record) map[[3]string]*series {
	out := make(map[[3]string]*series)
	for _, r := range recs {
		mode := "untraced"
		if r.Provenance.Trace {
			mode = "traced"
		}
		t, _ := time.Parse(time.RFC3339, r.Provenance.Time)
		for _, m := range r.Metrics {
			k := [3]string{r.Provenance.Workload, mode, m.Name}
			if out[k] == nil {
				out[k] = &series{}
			}
			out[k].values = append(out[k].values, m.Value)
			out[k].times = append(out[k].times, t)
		}
	}
	return out
}

// compareMain prints one row per (workload, metric): each side's median
// and quartiles, pairs won, and the verdict. A row whose parent and
// change runs were not taken alternately gets no verdict, and the
// comparison exits 1: drift of the machine between two blocks of runs
// can exceed a metric's bound on its own.
func compareMain(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	bench := fs.String("bench", "BENCHMARK.json", "benchmark definition holding each metric's direction and bound")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare [--bench BENCHMARK.json] parent.log change.log")
		return 2
	}
	dirs, err := readDirections(*bench)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	var sides [2]map[[3]string]*series
	for i := range sides {
		recs, err := readRecords(fs.Arg(i))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		sides[i] = group(recs)
	}
	var keys [][3]string
	for k := range sides[0] {
		if _, ok := sides[1][k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		for x := range a {
			if a[x] != b[x] {
				return a[x] < b[x]
			}
		}
		return false
	})
	fmt.Fprintf(w, "%-15s %-9s %-28s %-32s %-32s %-7s %s\n", "workload", "run", "metric", "parent median [q1, q3]", "change median [q1, q3]", "won", "verdict")
	invalid := 0
	for _, k := range keys {
		d, ok := dirs[k[2]]
		if !ok {
			continue
		}
		p, c := sides[0][k], sides[1][k]
		v, wins, pairs := verdict(p.values, c.values, d.Better == "higher", d.Bound)
		if !interleaved(p.times, c.times) {
			v = notInterleaved
			invalid++
		}
		fmt.Fprintf(w, "%-15s %-9s %-28s %-32s %-32s %-7s %s\n", k[0], k[1], k[2], spread(p.values), spread(c.values), fmt.Sprintf("%d/%d", wins, pairs), v)
	}
	if invalid > 0 {
		fmt.Fprintf(os.Stderr, "perfbench compare: %d rows come from parent and change runs that were not taken alternately; their verdicts are invalid\n", invalid)
		return 1
	}
	return 0
}

// spread formats a median with its quartiles.
func spread(v []float64) string {
	q1, m, q3 := quartiles(v)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", m, q1, q3)
}
