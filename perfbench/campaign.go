package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/results"
)

// paperSpec is the paper campaign, run verbatim.
const paperSpec = "specs/paper.json"

// paperSlot is the budget one paper campaign (about 11 s on a 2-vCPU
// machine) stands for.
const paperSlot = 10 * time.Second

// A pass repeats its set-up setupWarm times untimed, then times it back
// to back until setupSpan has passed and at least setupMinReps
// repetitions ran; setup_s is the median. Sampling a fixed span of wall
// time, rather than a fixed count, keeps a short stall or a slow moment
// of a shared machine from deciding the figure. The span is short
// because every served set-up opens loopback connections, which stay in
// TIME_WAIT into the next runs.
const (
	setupWarm    = 20
	setupMinReps = 101
	setupSpan    = 500 * time.Millisecond
)

// timeSetup runs setup as described above and returns the median
// seconds and the number of timed repetitions. teardown, when not nil,
// undoes a set-up before the next one, outside the timed window; the
// last set-up is left standing for the workload.
func timeSetup(setup func() error, teardown func()) (float64, int, error) {
	runtime.GC()
	var s []float64
	var start time.Time
	for i := 0; ; i++ {
		if i == setupWarm {
			start = time.Now()
		}
		t0 := time.Now()
		if err := setup(); err != nil {
			return 0, 0, err
		}
		if i >= setupWarm {
			s = append(s, time.Since(t0).Seconds())
			if len(s) >= setupMinReps && time.Since(start) >= setupSpan {
				return median(s), len(s), nil
			}
		}
		if teardown != nil {
			teardown()
		}
	}
}

// runCampaignPaper is the campaign-paper workload: specs/paper.json
// through campaign.RunCtx with one worker per CPU, a fresh output
// directory per campaign, closed loop with one caller. The spec fixes
// its own seed, so --seed changes nothing here but the record.
func runCampaignPaper(e *env) error {
	var spec *campaign.Spec
	setup, n, err := timeSetup(func() (err error) {
		spec, err = campaign.LoadSpec(paperSpec)
		return err
	}, nil)
	if err != nil {
		return err
	}
	e.rep.add("setup_s", "s", setup, n, "load and validate specs/paper.json, median")

	var walls, rates, allocs []float64
	for i := 0; i < e.campaigns(paperSlot); i++ {
		dir := filepath.Join(e.tmp, fmt.Sprintf("paper-%d", i))
		var epochs atomic.Int64
		prog := campaign.Progress{Epoch: func(string, core.EpochSample) { epochs.Add(1) }}
		exps := experimentSpans(e.tr, &prog)
		root := e.tr.start("campaign", "campaign.RunCtx specs/paper.json", 0)
		exps.parent = root
		a0 := allocatedBytes()
		t0 := time.Now()
		_, tables, err := campaign.RunCtx(e.ctx, spec, dir, e.nproc, prog)
		wall := time.Since(t0)
		a1 := allocatedBytes()
		e.tr.end(root)
		e.rep.Attempted++
		if err != nil {
			e.rep.fail("campaign-paper", err)
			continue
		}
		if err := checkDigests(dir, paperDigests); err != nil {
			e.rep.fail("campaign-paper", err)
		}
		walls = append(walls, wall.Seconds())
		rates = append(rates, float64(epochs.Load())/wall.Seconds())
		allocs = append(allocs, float64(a1-a0)/(1<<20))
		if e.tr != nil {
			if err := paperLayers(e, tables, wall, epochs.Load(), exps); err != nil {
				return err
			}
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	if len(walls) == 0 {
		return fmt.Errorf("no campaign finished: %v", e.rep.Errors)
	}
	e.rep.addMedian("campaign_s", "s", walls, "campaign.RunCtx wall, median of campaigns")
	e.rep.addMedian("epochs_per_s", "1/s", rates, "attacked budgeting epochs per host second")
	e.rep.addMedian("alloc_mb", "MiB", allocs, "Go heap allocated per campaign")
	return nil
}

// expSpans collects the per-family intervals the campaign reports
// through its Progress callbacks.
type expSpans struct {
	tr     *tracer
	parent int
	mu     sync.Mutex
	start  map[string]time.Time
	done   map[string]time.Time
}

// experimentSpans hooks span recording into prog's experiment callbacks
// when tracing is on.
func experimentSpans(tr *tracer, prog *campaign.Progress) *expSpans {
	x := &expSpans{tr: tr, start: map[string]time.Time{}, done: map[string]time.Time{}}
	if tr == nil {
		return x
	}
	prog.ExperimentStarted = func(id string) {
		x.mu.Lock()
		x.start[id] = time.Now()
		x.mu.Unlock()
	}
	prog.ExperimentDone = func(id string, _ results.Table, _ error) {
		now := time.Now()
		x.mu.Lock()
		x.done[id] = now
		x.tr.add("campaign", "experiment "+id, x.parent, x.start[id], now)
		x.mu.Unlock()
	}
	return x
}

// paperLayers reports the traced campaign's layer metrics: per-family
// seconds, the critical family's share, epochs, and the cost of writing
// the artifacts through results.WriteArtifact.
func paperLayers(e *env, tables []results.Table, wall time.Duration, epochs int64, x *expSpans) error {
	var last string
	for _, id := range experimentIDs {
		d := x.done[id].Sub(x.start[id])
		e.rep.add("campaign.exp_s."+id, "s", d.Seconds(), 1, "ExperimentStarted → ExperimentDone")
		if last == "" || x.done[id].After(x.done[last]) {
			last = id
		}
	}
	crit := x.done[last].Sub(x.start[last])
	e.rep.add("campaign.critical_share", "ratio", crit.Seconds()/wall.Seconds(), 1, "last-finishing family "+last+" ÷ campaign_s")
	e.rep.add("core.epochs", "count", float64(epochs), 1, "Progress.Epoch callbacks")
	e.rep.add("core.us_per_epoch", "us", wall.Seconds()*1e6*float64(e.nproc)/float64(epochs), 1, "campaign wall × pool ÷ epochs")

	dir := filepath.Join(e.tmp, "write-probe")
	id := e.tr.start("results", "results.WriteArtifact ×12", 0)
	t0 := time.Now()
	for _, t := range tables {
		if _, _, err := results.WriteArtifact(dir, t); err != nil {
			return err
		}
	}
	d := time.Since(t0)
	e.tr.end(id)
	e.rep.add("results.write_ms", "ms", float64(d.Nanoseconds())/1e6, len(tables), "writing every table's JSON and CSV")
	return os.RemoveAll(dir)
}
