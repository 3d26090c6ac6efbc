// Command perfbench is the repository benchmark: it drives the program
// through its public Go APIs and its HTTP service on three workloads,
// checks every output byte, and prints the end-to-end metrics (or, with
// --trace 1, the per-layer metrics of a traced run) by name, unit and
// sample count. The last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench --workload campaign-paper --seed 1 --seconds 20 --trace 0
//	perfbench compare [--bench BENCHMARK.json] parent.log change.log
//
// Workloads (see README.md for why each exists):
//
//	campaign-paper  specs/paper.json through campaign.RunCtx, closed loop
//	serve-mixed     open-loop reads and simulator writes against an
//	                in-process htserved, then a closed capacity phase
//	dist-campaign   a sharded campaign through an in-process coordinator
//	                and two one-core workers, closed loop
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// workDir is where runs keep scratch files and span files, relative to
// the checkout root the benchmark runs from.
const workDir = ".bench_build"

// runDeadline bounds one whole run, set-up and verification included.
// It grows with --seconds because the campaign workloads run one whole
// campaign per slot of the budget, each taking longer than its slot
// (paperSlot, distSlot), and the traced run executes every workload
// once more. It is never under 170 s, so a run at the benchmark's own
// --seconds that hangs still exits within the 180 s a run may take.
func runDeadline(seconds time.Duration, traced bool) time.Duration {
	per := 3 * seconds
	if traced {
		per = 8 * seconds
	}
	return max(170*time.Second, time.Minute+per)
}

// metricDef names one metric the benchmark can report.
type metricDef struct {
	Name, Unit string
}

// endToEnd are the metrics every untraced run reports, on every
// workload; BENCHMARK.json lists the same names.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"campaign_s", "s"},
	{"epochs_per_s", "1/s"},
	{"alloc_mb", "MiB"},
}

// metric is one reported value with the number of samples behind it.
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	N     int     `json:"n"`
	Note  string  `json:"note,omitempty"`
	// Samples holds the values a median was taken over, when few.
	Samples []float64 `json:"samples,omitempty"`
}

// report collects one pass's metrics and op accounting.
type report struct {
	Metrics   []metric `json:"metrics"`
	Attempted int      `json:"attempted"`
	// Failed counts failed ops; Wrong counts those among them whose
	// output differed from its reference.
	Failed int      `json:"failed"`
	Wrong  int      `json:"wrong"`
	Errors []string `json:"errors,omitempty"`
}

// add records a metric.
func (r *report) add(name, unit string, v float64, n int, note string) {
	r.Metrics = append(r.Metrics, metric{Name: name, Unit: unit, Value: v, N: n, Note: note})
}

// addMedian records the median of a few values, keeping the values.
func (r *report) addMedian(name, unit string, values []float64, note string) {
	r.Metrics = append(r.Metrics, metric{Name: name, Unit: unit, Value: median(values), N: len(values), Note: note, Samples: values})
}

// addDist records a median and a tail metric from one sample set, the
// tail chosen by the percentile rule.
func (r *report) addDist(medName, tailName, unit string, d dist) {
	if d.N == 0 {
		return
	}
	r.add(medName, unit, d.Median, d.N, "p50")
	if tailName != "" {
		r.add(tailName, unit, d.Tail, d.N, d.tailLabel())
	}
}

// errMismatch marks an output that differs from its reference.
var errMismatch = errors.New("output differs from its reference")

// fail counts one failed op, and a wrong output among them, and keeps
// its reason.
func (r *report) fail(what string, err error) {
	r.Failed++
	if errors.Is(err, errMismatch) {
		r.Wrong++
	}
	if len(r.Errors) < 20 {
		r.Errors = append(r.Errors, what+": "+err.Error())
	}
}

// get returns the metric named name.
func (r *report) get(name string) (metric, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

// account adds another pass's op accounting.
func (r *report) account(o *report) {
	r.Attempted += o.Attempted
	r.Failed += o.Failed
	r.Wrong += o.Wrong
	r.Errors = append(r.Errors, o.Errors...)
}

// mergeLayers adds another pass's accounting and its per-layer metrics:
// a traced pass's end-to-end figures are not end-to-end results.
func (r *report) mergeLayers(o *report) {
	r.account(o)
	for _, m := range o.Metrics {
		if isLayerMetric(m.Name) {
			r.Metrics = append(r.Metrics, m)
		}
	}
}

// env is what one workload pass runs with.
type env struct {
	ctx  context.Context
	seed int64
	// budget is how long the timed phase measures: serve-mixed's
	// schedule length, and for the campaign workloads a fixed number of
	// whole campaigns (see env.campaigns).
	budget time.Duration
	// tr is nil in untraced passes.
	tr    *tracer
	nproc int
	// tmp is this pass's scratch directory inside the checkout.
	tmp string
	rep *report
}

// campaigns is how many whole campaigns a campaign workload runs: one
// per slot of the budget, at least one. The count is fixed by the budget,
// not by how many campaigns fit, so both sides of a comparison do the
// same work.
func (e *env) campaigns(slot time.Duration) int {
	return max(1, int((e.budget+slot/2)/slot))
}

// workload is one named benchmark workload.
type workload struct {
	name string
	run  func(e *env) error
	// traceBudget sizes the pass when another workload's traced run
	// executes this one for its layer metrics.
	traceBudget func(seconds time.Duration) time.Duration
}

func workloads() []workload {
	one := func(time.Duration) time.Duration { return 0 }
	return []workload{
		{name: "campaign-paper", run: runCampaignPaper, traceBudget: one},
		{name: "serve-mixed", run: runServeMixed, traceBudget: func(s time.Duration) time.Duration { return s }},
		{name: "dist-campaign", run: runDistCampaign, traceBudget: one},
	}
}

// provenance identifies the machine, build and inputs of a result.
type provenance struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Time       string `json:"time"`
}

// record is the full result of one run, printed on a line starting with
// "record " for the comparator.
type record struct {
	Provenance provenance `json:"provenance"`
	Correct    bool       `json:"correct"`
	report
	SpanFile string `json:"span_file,omitempty"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	if len(os.Args) > 1 && os.Args[1] == "digests" {
		os.Exit(digestsMain(os.Stdout))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout))
}

func runMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 10, "how long one run measures")
	trace := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for _, c := range workloads() {
		if c.name == *name {
			w = &c
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (campaign-paper, serve-mixed, dist-campaign), --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	rec, err := execute(*w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	rec.Provenance = newProvenance(*name, *seed, *seconds, *trace == 1)
	want := endToEnd
	if *trace == 1 {
		want = perLayer()
	}
	return emit(stdout, rec, want)
}

// execute runs one untraced pass, or the traced run: the workload once
// untraced and once traced (their campaign_s ratio is trace.overhead),
// the other workloads traced for their layers, and the layer probes.
func execute(w workload, seed int64, seconds time.Duration, traced bool) (*record, error) {
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline(seconds, traced))
	defer cancel()
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(workDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	nproc := runtime.NumCPU()
	pass := func(wl workload, tr *tracer, budget time.Duration) (*report, error) {
		dir := filepath.Join(tmp, wl.name)
		if tr != nil {
			dir += "-traced"
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		e := &env{ctx: ctx, seed: seed, budget: budget, tr: tr, nproc: nproc, tmp: dir, rep: &report{}}
		err := wl.run(e)
		return e.rep, err
	}
	rec := &record{}
	if !traced {
		rep, err := pass(w, nil, seconds)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		rec.report = *rep
		rec.Correct = rep.Wrong == 0
		return rec, nil
	}

	tr := newTracer(fmt.Sprintf("%s-seed%d-%d", w.name, seed, time.Now().UnixNano()))
	rec.mergeLayers(probeLayers(seed, tr))
	budget := w.traceBudget(seconds)
	plain, err := pass(w, nil, budget)
	if err != nil {
		return nil, fmt.Errorf("%s untraced: %w", w.name, err)
	}
	rec.account(plain)
	rt := startRuntimeWatch()
	mine, err := pass(w, tr, budget)
	if err != nil {
		return nil, fmt.Errorf("%s traced: %w", w.name, err)
	}
	rt.stop(mine)
	rec.mergeLayers(mine)
	a, _ := plain.get("campaign_s")
	b, _ := mine.get("campaign_s")
	rec.add("trace.overhead", "ratio", b.Value/a.Value, 2, "traced ÷ untraced campaign_s")
	for _, other := range workloads() {
		if other.name == w.name {
			continue
		}
		rep, err := pass(other, tr, other.traceBudget(seconds))
		if err != nil {
			return nil, fmt.Errorf("%s traced: %w", other.name, err)
		}
		rec.mergeLayers(rep)
	}
	rec.SpanFile = filepath.Join(workDir, fmt.Sprintf("spans-%s-seed%d.json", w.name, seed))
	if err := writeSpans(rec.SpanFile, tr.snapshot()); err != nil {
		return nil, err
	}
	rec.Correct = rec.Wrong == 0
	return rec, nil
}

// emit prints every metric with its unit and sample count, the full
// record, and the final result line holding exactly the wanted metrics.
func emit(w io.Writer, rec *record, want []metricDef) int {
	ms := append([]metric(nil), rec.Metrics...)
	sort.SliceStable(ms, func(i, j int) bool { return ms[i].Name < ms[j].Name })
	p := rec.Provenance
	fmt.Fprintf(w, "workload %s seed %d seconds %d trace %v · nproc %d GOMAXPROCS %d · %s · %s · commit %s\n",
		p.Workload, p.Seed, p.Seconds, p.Trace, p.Nproc, p.GOMAXPROCS, p.CPU, p.Go, p.Commit)
	for _, m := range ms {
		fmt.Fprintf(w, "  %-34s %16.6g %-6s n=%d %s\n", m.Name, m.Value, m.Unit, m.N, m.Note)
	}
	errRate := 0.0
	if rec.Attempted > 0 {
		errRate = float64(rec.Failed) / float64(rec.Attempted)
	}
	fmt.Fprintf(w, "  %-34s %16.6g %-6s n=%d\n", "error_rate", errRate, "ratio", rec.Attempted)
	if rec.SpanFile != "" {
		fmt.Fprintf(w, "  spans written to %s\n", rec.SpanFile)
	}
	for _, e := range rec.Errors {
		fmt.Fprintf(w, "  error: %s\n", e)
	}
	b, err := json.Marshal(rec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(w, "record %s\n", b)

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := make(map[string]value, len(want))
	for _, d := range want {
		m, ok := rec.get(d.Name)
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s was not measured\n", d.Name)
			return 1
		}
		out[d.Name] = value{m.Value, d.Unit}
	}
	attempted := rec.Attempted
	if attempted < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: no op was attempted\n")
		return 1
	}
	line, err := json.Marshal(map[string]any{
		"correct":   rec.Correct,
		"attempted": attempted,
		"failed":    rec.Failed,
		"metrics":   out,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(w, "%s\n", line)
	if !rec.Correct {
		return 1
	}
	return 0
}

func newProvenance(name string, seed int64, seconds int, traced bool) provenance {
	return provenance{
		Workload:   name,
		Seed:       seed,
		Seconds:    seconds,
		Trace:      traced,
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
		Commit:     commit(),
		Time:       time.Now().UTC().Format(time.RFC3339Nano),
	}
}

// cpuModel reads the CPU model name from /proc/cpuinfo where it exists.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit reports the VCS revision stamped into the benchmark binary.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}
