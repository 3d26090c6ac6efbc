package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/loadgen"
	"repro/internal/results"
	"repro/internal/server"
	"repro/pkg/htsim"
)

// serve-mixed settings. The offered rate is frozen so every commit is
// measured at the same load. It is about a quarter of the closed-phase
// capacity on a 2-vCPU machine (200–290 ops/s): at 110 and 170 ops/s the
// open-loop latency medians of repeated runs on a shared machine moved
// by 20–200 %, at 60 ops/s by about 10 % while the machine was quiet.
const (
	serveRate     = 60.0 // ops per second, open loop
	openShare     = 0.5  // of the budget; the closed capacity phase gets the rest
	jobLimit      = 100 * time.Millisecond
	maxInFlight   = 1024
	fixtureSims   = 3
	serveQueueCap = 1024
)

// Op kinds. Reads never run the simulator; writes always do.
const (
	kindHit      = iota // POST of the shared, cached campaign
	kindArtifact        // GET of an artifact of a finished job
	kindReplay          // SSE replay of a finished job's events
	kindSim             // POST of a fresh 64-core sim with memory traffic
	kindCampaign        // POST of a fresh small E1+E3 campaign
	numKinds
)

var kindNames = [numKinds]string{"hit", "artifact", "replay", "sim", "campaign"}

// blockSize is the length of the op block plans repeat.
const blockSize = 20

// kindBlock is the mix as a block of blockSize ops; plans repeat
// shuffled copies of it, so every run offers the same proportions
// exactly. The proportions are htload's loadgen.DefaultMix over the five
// kinds this workload runs (cancellation, its sixth kind, is left out:
// a cancelled job has no output to check), rounded to whole ops by
// largest remainder: 6 hits, 4 artifact GETs, 3 replays, 4 sims and 3
// campaigns.
var kindBlock = blockFromMix(loadgen.DefaultMix, blockSize)

// blockFromMix apportions size ops over the kinds in proportion to the
// mix's weights: each kind gets the floor of its share, and the ops left
// go to the largest remainders, earlier kinds first on ties.
func blockFromMix(m loadgen.Mix, size int) [numKinds]int {
	var w [numKinds]float64
	w[kindHit], w[kindCampaign], w[kindSim] = m.CampaignCached, m.CampaignUncached, m.Sim
	w[kindArtifact], w[kindReplay] = m.ArtifactGet, m.SSE
	total := 0.0
	for _, x := range w {
		total += x
	}
	var out [numKinds]int
	var rem [numKinds]float64
	left := size
	for k, x := range w {
		share := x / total * float64(size)
		out[k] = int(share)
		rem[k] = share - float64(out[k])
		left -= out[k]
	}
	for ; left > 0; left-- {
		best := 0
		for k := range rem {
			if rem[k] > rem[best] {
				best = k
			}
		}
		out[best]++
		rem[best] = -1
	}
	return out
}

// sharedSpec is the campaign every hit op submits.
const sharedSpec = `{"name":"shared","seed":1,"experiments":[{"id":"E1","params":{"size":64}},{"id":"E3","params":{"trials":3}}]}`

func isWrite(kind int) bool { return kind == kindSim || kind == kindCampaign }

// serveOp is one planned op.
type serveOp struct {
	kind int
	body string // writes
	seed int64  // writes
	// job and artifact name the read target.
	job      int
	artifact string
}

// fixture is a finished job reads target, with its reference artifacts.
type fixture struct {
	id   string
	refs map[string][]byte
	// names lists refs' keys in a fixed order.
	names []string
}

// planKinds draws n op kinds as shuffled copies of kindBlock.
func planKinds(rng *rand.Rand, n int) []int {
	var block []int
	for k, c := range kindBlock {
		for i := 0; i < c; i++ {
			block = append(block, k)
		}
	}
	out := make([]int, 0, n+len(block))
	for len(out) < n {
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		out = append(out, block...)
	}
	return out[:n]
}

// planOps turns kinds into ops with targets and fresh write payloads.
// stream keeps the open and closed phases' payloads distinct.
func planOps(rng *rand.Rand, kinds []int, fixtures []fixture, seed int64, stream string) []serveOp {
	ops := make([]serveOp, len(kinds))
	for i, k := range kinds {
		op := serveOp{kind: k}
		switch k {
		case kindArtifact:
			op.job = rng.Intn(len(fixtures))
			names := fixtures[op.job].names
			op.artifact = names[rng.Intn(len(names))]
		case kindReplay:
			op.job = rng.Intn(len(fixtures))
		case kindSim:
			op.seed = positiveSeed(seed, fmt.Sprintf("%s-sim-%d", stream, i))
			op.body = simBody(op.seed)
		case kindCampaign:
			op.seed = positiveSeed(seed, fmt.Sprintf("%s-campaign-%d", stream, i))
			op.body = freshCampaign(op.seed)
		}
		ops[i] = op
	}
	return ops
}

// planDues spreads n arrivals uniformly at random over horizon, sorted:
// a Poisson process conditioned on its count.
func planDues(rng *rand.Rand, n int, horizon time.Duration) []time.Duration {
	d := make([]time.Duration, n)
	for i := range d {
		d[i] = time.Duration(rng.Int63n(int64(horizon)))
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d
}

// positiveSeed derives a strictly positive payload seed for a stream.
func positiveSeed(base int64, stream string) int64 {
	s := exp.StreamSeed(base, stream) & 0x7fffffffffffffff
	if s == 0 {
		s = 1
	}
	return s
}

// Sim payload fields, fully spelled out so the local reference needs no
// knowledge of the service's defaults.
const (
	simCores   = 64
	simThreads = 4
	simHTs     = 4
	simEpochs  = 6
)

func simBody(seed int64) string {
	return fmt.Sprintf(`{"cores":%d,"threads":%d,"hts":%d,"epochs":%d,"mem":true,"seed":%d,"workers":1,`+
		`"topology":"mesh","allocator":"fair","defense":"none","mix":"mix-1","placement":"random",`+
		`"strategy":"scale","mode":"false-data","gm":"center","epoch_cycles":1000}`,
		simCores, simThreads, simHTs, simEpochs, seed)
}

func freshCampaign(seed int64) string {
	return fmt.Sprintf(`{"name":"fresh","seed":%d,"experiments":[{"id":"E1","params":{"size":64}},{"id":"E3","params":{"trials":3}}]}`, seed)
}

// simReference runs a sim payload through the public SDK, outside the
// service, and renders its run table.
func simReference(ctx context.Context, seed int64) (map[string][]byte, error) {
	sim, err := htsim.New(
		htsim.WithMemTraffic(true), htsim.WithSeed(seed), htsim.WithWorkers(1), htsim.WithGMPlacement("center"),
		htsim.WithCores(simCores), htsim.WithTopology("mesh"), htsim.WithAllocator("fair"), htsim.WithDefense("none"),
		htsim.WithEpochs(simEpochs), htsim.WithEpochCycles(1000))
	if err != nil {
		return nil, err
	}
	sc, err := htsim.MixScenario("mix-1", simThreads)
	if err != nil {
		return nil, err
	}
	if sc.Strategy, err = htsim.Strategy("scale"); err != nil {
		return nil, err
	}
	if sc.Mode, err = htsim.AttackMode("false-data"); err != nil {
		return nil, err
	}
	if sc.Trojans, err = sim.Trojans("random", simHTs, seed); err != nil {
		return nil, err
	}
	attacked, baseline, err := sim.RunPair(ctx, sc)
	if err != nil {
		return nil, err
	}
	cmp, err := htsim.Compare(attacked, baseline)
	if err != nil {
		return nil, err
	}
	return render([]results.Table{core.CampaignTableFor(sim.Config(), attacked, cmp)})
}

// campaignReference runs a campaign payload locally through
// campaign.BuildTables and renders every table.
func campaignReference(ctx context.Context, body string, workers int, prog campaign.Progress) (map[string][]byte, error) {
	spec, err := campaign.ParseSpec([]byte(body))
	if err != nil {
		return nil, err
	}
	tables, err := campaign.BuildTables(ctx, spec, workers, prog)
	if err != nil {
		return nil, err
	}
	return render(tables)
}

// reference computes a write op's reference artifacts.
func (op serveOp) reference(ctx context.Context) (map[string][]byte, error) {
	if op.kind == kindSim {
		return simReference(ctx, op.seed)
	}
	return campaignReference(ctx, op.body, 1, campaign.Progress{})
}

// checkedArtifacts are the artifacts fetched after the timed phase to
// verify a write op.
func (op serveOp) checkedArtifacts() []string {
	if op.kind == kindSim {
		return []string{"run.json", "run.csv"}
	}
	return []string{"e1.json", "e3.json", "e3.csv"}
}

// serveRun is one serve-mixed pass's live state.
type serveRun struct {
	e        *env
	srv      *served
	clients  []*http.Client
	fixtures []fixture
	next     atomic.Int64
}

// client spreads requests over nproc HTTP/2 connections.
func (s *serveRun) client() *http.Client {
	return s.clients[int(s.next.Add(1))%len(s.clients)]
}

// opResult is what executing one op learned.
type opResult struct {
	jobID  string
	accept time.Duration // POST → 202, writes
	epochs int
}

// exec runs one op to completion: a read until its bytes are checked, a
// write until its job's terminal event.
func (s *serveRun) exec(ctx context.Context, op serveOp, res *opResult) error {
	c, base := s.client(), s.srv.base
	switch op.kind {
	case kindHit:
		st, err := submit(ctx, c, base+"/v1/campaigns", sharedSpec)
		if err != nil {
			return err
		}
		if st.State != "done" || st.Cache == "" {
			return fmt.Errorf("shared campaign not answered from cache: state %s cache %q", st.State, st.Cache)
		}
		return nil
	case kindArtifact:
		f := s.fixtures[op.job]
		b, err := getArtifact(ctx, c, base, f.id, op.artifact)
		if err != nil {
			return err
		}
		return sameBytes(op.artifact, b, f.refs[op.artifact])
	case kindReplay:
		_, _, err := waitTerminal(ctx, c, base, s.fixtures[op.job].id)
		return err
	}
	path := "/v1/sims"
	if op.kind == kindCampaign {
		path = "/v1/campaigns"
	}
	t0 := time.Now()
	st, err := submit(ctx, c, base+path, op.body)
	if err != nil {
		return err
	}
	res.accept, res.jobID = time.Since(t0), st.ID
	_, res.epochs, err = waitTerminal(ctx, c, base, st.ID)
	return err
}

// runServeMixed is the serve-mixed workload: an open loop at serveRate
// for openShare of the budget, then a closed capacity phase with nproc
// clients, against an in-process htserved (Jobs = nproc, Workers = 1,
// disk cache tier in a temporary directory).
func runServeMixed(e *env) error {
	budget := e.budget
	if budget < 2*time.Second {
		budget = 2 * time.Second
	}
	s := &serveRun{e: e}
	for i := 0; i < e.nproc; i++ {
		s.clients = append(s.clients, h2cClient())
	}
	defer func() {
		for _, c := range s.clients {
			c.CloseIdleConnections()
		}
	}()
	// Every set-up reuses one cache directory, made before timing: a
	// fresh directory per repetition would time the file system's
	// directory creation, which on a shared disk swings by milliseconds.
	// No job runs during set-up, so the workload's server starts with an
	// empty disk tier all the same.
	opts := server.Options{
		Jobs:       e.nproc,
		Workers:    1,
		QueueDepth: serveQueueCap,
		CacheDir:   filepath.Join(e.tmp, "cache"),
	}
	if err := os.MkdirAll(opts.CacheDir, 0o755); err != nil {
		return err
	}
	closeServer := func() {
		if s.srv != nil {
			s.srv.close()
			s.srv = nil
		}
	}
	defer closeServer()
	setup, reps, err := timeSetup(func() error {
		if _, err := campaign.ParseSpec([]byte(sharedSpec)); err != nil {
			return err
		}
		srv, err := startServed(e.ctx, s.clients[0], opts)
		s.srv = srv
		return err
	}, closeServer)
	if err != nil {
		return err
	}
	e.rep.add("setup_s", "s", setup, reps, "server.New until /v1/healthz answers 200, median")

	if err := s.prepareFixtures(); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(e.seed))
	openFor := time.Duration(float64(budget) * openShare)
	n := int(serveRate * openFor.Seconds())
	ops := planOps(rng, planKinds(rng, n), s.fixtures, e.seed, "open")
	dues := planDues(rng, n, openFor)

	// Timed: the open loop.
	root := e.tr.start("server", "open loop", 0)
	results := make([]opResult, len(ops))
	a0 := allocatedBytes()
	timings := runOpen(e.ctx, time.Now(), dues, maxInFlight, func(i int) error {
		id := e.tr.start("server", kindNames[ops[i].kind], root)
		defer e.tr.end(id)
		return s.exec(e.ctx, ops[i], &results[i])
	})
	a1 := allocatedBytes()
	e.tr.end(root)

	// Timed: the closed capacity phase.
	// Far more ops than any machine completes in the phase.
	closedFor := budget - openFor
	capOps := planOps(rng, planKinds(rng, int(1000*closedFor.Seconds())), s.fixtures, e.seed, "closed")
	closed := s.closedPhase(capOps, closedFor)

	// Untimed: check every finished write of both phases against its
	// reference.
	openIDs := make([]string, len(ops))
	for i := range ops {
		if timings[i].err == nil {
			openIDs[i] = results[i].jobID
		}
	}
	for i, err := range s.verifyWrites(ops, openIDs) {
		if err != nil {
			timings[i].err = err
		}
	}
	for i, err := range s.verifyWrites(capOps, closed.jobIDs) {
		if err != nil {
			e.rep.fail("closed "+kindNames[capOps[i].kind], err)
		}
	}

	var reads, jobs, lags, accepts, artifacts []float64
	met := 0
	for i, t := range timings {
		e.rep.Attempted++
		if !t.sent.IsZero() {
			lags = append(lags, ms(t.lag()))
		}
		if t.err != nil {
			e.rep.fail(kindNames[ops[i].kind], t.err)
			continue
		}
		l := ms(t.latency())
		switch {
		case isWrite(ops[i].kind):
			jobs = append(jobs, l)
			accepts = append(accepts, ms(results[i].accept))
			if t.latency() <= jobLimit {
				met++
			}
		default:
			reads = append(reads, l)
			if ops[i].kind == kindArtifact {
				artifacts = append(artifacts, l)
			}
		}
	}
	sent := 0
	for _, op := range ops {
		if isWrite(op.kind) {
			sent++
		}
	}
	if len(closed.sims) == 0 || closed.epochs == 0 {
		return fmt.Errorf("serve-mixed measured nothing: %v", e.rep.Errors)
	}
	// A sim job is one attacked-vs-baseline campaign, timed in the closed
	// phase where concurrency is fixed. The open loop's job latencies
	// (job_p50_ms, job_p99_ms) amplify every stall of a shared machine
	// through queueing, so their median is not steady enough to gate on.
	// The E1+E3 jobs run in about a millisecond and are left out.
	e.rep.add("campaign_s", "s", median(closed.sims), len(closed.sims), "fresh sim job in the closed phase, POST → terminal SSE event, median")
	e.rep.add("epochs_per_s", "1/s", float64(closed.epochs)/closed.elapsed.Seconds(), closed.epochs, "epochs streamed by sims in the closed phase per second")
	e.rep.add("alloc_mb", "MiB", float64(a1-a0)/(1<<20), len(ops), "Go heap allocated by the whole open-loop phase")
	e.rep.addDist("hit_p50_ms", "hit_p99_ms", "ms", summarize(reads))
	e.rep.addDist("job_p50_ms", "job_p99_ms", "ms", summarize(jobs))
	e.rep.add("slo_share", "ratio", float64(met)/float64(sent), sent, fmt.Sprintf("jobs done within %v of their due time", jobLimit))
	e.rep.add("capacity_rps", "1/s", float64(closed.completed)/closed.elapsed.Seconds(), closed.completed, fmt.Sprintf("closed phase, %d clients", e.nproc))
	lag := summarize(lags)
	e.rep.add("gen.lag_ms.p99", "ms", lag.Tail, lag.N, lag.tailLabel()+" of generator lateness")
	if e.tr == nil {
		return nil
	}
	e.rep.addDist("server.accept_ms.p50", "server.accept_ms.p99", "ms", summarize(accepts))
	e.rep.addDist("server.artifact_ms.p50", "server.artifact_ms.p99", "ms", summarize(artifacts))
	return s.serverLayers(ops, results, timings)
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// verifyWrites renders the reference of every write op with a job id,
// on nproc goroutines, and compares the job's artifacts with it. It runs
// after the timed phases and returns one error per op, nil where the
// bytes match or the op has no job.
func (s *serveRun) verifyWrites(ops []serveOp, jobIDs []string) []error {
	errs := make([]error, len(ops))
	check := func(i int) error {
		ref, err := ops[i].reference(s.e.ctx)
		if err != nil {
			return fmt.Errorf("reference: %w", err)
		}
		for _, name := range ops[i].checkedArtifacts() {
			b, err := getArtifact(s.e.ctx, s.client(), s.srv.base, jobIDs[i], name)
			if err == nil {
				err = sameBytes(name, b, ref[name])
			}
			if err != nil {
				return err
			}
		}
		return nil
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < s.e.nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				if isWrite(ops[i].kind) && jobIDs[i] != "" {
					if err := check(i); err != nil {
						errs[i] = fmt.Errorf("%s job %s: %w", kindNames[ops[i].kind], jobIDs[i], err)
					}
				}
			}
		}()
	}
	wg.Wait()
	return errs
}

// prepareFixtures runs the shared campaign and a few sims to completion
// and renders their references, before anything is timed.
func (s *serveRun) prepareFixtures() error {
	ctx, c, base := s.e.ctx, s.clients[0], s.srv.base
	add := func(path, body string, ref map[string][]byte) error {
		st, err := submit(ctx, c, base+path, body)
		if err != nil {
			return err
		}
		if _, _, err := waitTerminal(ctx, c, base, st.ID); err != nil {
			return err
		}
		f := fixture{id: st.ID, refs: ref}
		for name, want := range ref {
			got, err := getArtifact(ctx, c, base, st.ID, name)
			if err != nil {
				return err
			}
			if err := sameBytes(name, got, want); err != nil {
				return fmt.Errorf("fixture %s: %w", st.ID, err)
			}
			f.names = append(f.names, name)
		}
		sort.Strings(f.names)
		s.fixtures = append(s.fixtures, f)
		return nil
	}
	ref, err := campaignReference(ctx, sharedSpec, s.e.nproc, campaign.Progress{})
	if err != nil {
		return err
	}
	if err := add("/v1/campaigns", sharedSpec, ref); err != nil {
		return err
	}
	for i := 0; i < fixtureSims; i++ {
		seed := positiveSeed(s.e.seed, fmt.Sprintf("fixture-sim-%d", i))
		ref, err := simReference(ctx, seed)
		if err != nil {
			return err
		}
		if err := add("/v1/sims", simBody(seed), ref); err != nil {
			return err
		}
	}
	return nil
}

// closedResult is what the closed capacity phase measured.
type closedResult struct {
	completed, epochs int
	elapsed           time.Duration
	// sims are the seconds from POST to terminal event of each sim.
	sims []float64
	// jobIDs holds, per op, the job of each write that finished.
	jobIDs []string
}

// closedPhase runs nproc clients back to back over ops for d.
func (s *serveRun) closedPhase(ops []serveOp, d time.Duration) closedResult {
	out := closedResult{jobIDs: make([]string, len(ops))}
	var mu sync.Mutex
	var next atomic.Int64
	var wg sync.WaitGroup
	root := s.e.tr.start("server", "closed phase", 0)
	start := time.Now()
	stop := start.Add(d)
	var last time.Time
	for w := 0; w < s.e.nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stop) && s.e.ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				var res opResult
				id := s.e.tr.start("server", kindNames[ops[i].kind], root)
				t0 := time.Now()
				err := s.exec(s.e.ctx, ops[i], &res)
				now := time.Now()
				s.e.tr.end(id)
				mu.Lock()
				s.e.rep.Attempted++
				if err != nil {
					s.e.rep.fail("closed "+kindNames[ops[i].kind], err)
				} else {
					out.completed++
					out.epochs += res.epochs
					out.jobIDs[i] = res.jobID
					if ops[i].kind == kindSim {
						out.sims = append(out.sims, now.Sub(t0).Seconds())
					}
				}
				if now.After(last) {
					last = now
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	s.e.tr.end(root)
	out.elapsed = last.Sub(start)
	return out
}

// serverLayers reads the service's own accounting after the timed
// phases: per-job queue, gate and run spans from each write's trace, and
// the shed, dropped and cache counters from /v1/metrics.
func (s *serveRun) serverLayers(ops []serveOp, res []opResult, timings []timing) error {
	ctx, c, base := s.e.ctx, s.clients[0], s.srv.base
	var queue, gate, runSim, runCampaign []float64
	for i, op := range ops {
		if !isWrite(op.kind) || timings[i].err != nil {
			continue
		}
		root, err := jobTrace(ctx, c, base, res[i].jobID)
		if err != nil {
			return err
		}
		root.walk(func(n *traceNode) {
			d := n.DurationSeconds * 1e3
			switch n.Name {
			case "queue.wait":
				queue = append(queue, d)
			case "gate.wait":
				gate = append(gate, d)
			case "run":
				if op.kind == kindSim {
					runSim = append(runSim, d)
				} else {
					runCampaign = append(runCampaign, d)
				}
			}
		})
	}
	s.e.rep.addDist("server.queue_wait_ms.p50", "server.queue_wait_ms.p99", "ms", summarize(queue))
	g := summarize(gate)
	s.e.rep.add("server.gate_wait_ms.p99", "ms", g.Tail, g.N, g.tailLabel())
	s.e.rep.addDist("server.run_ms.sim.p50", "server.run_ms.sim.p99", "ms", summarize(runSim))
	s.e.rep.addDist("server.run_ms.campaign.p50", "", "ms", summarize(runCampaign))

	code, b, err := fetch(ctx, c, http.MethodGet, base+"/v1/metrics", "")
	if err != nil || code != http.StatusOK {
		return fmt.Errorf("GET /v1/metrics: %d %v", code, err)
	}
	var m map[string]float64
	if err := json.Unmarshal(b, &m); err != nil {
		return err
	}
	hits := m["cache_hits"] + m["cache_disk_hits"]
	s.e.rep.add("server.cache_hit_ratio", "ratio", hits/(hits+m["cache_misses"]), int(hits+m["cache_misses"]), "memory and disk hits ÷ lookups")
	s.e.rep.add("server.shed", "count", m["requests_shed"], 1, "")
	s.e.rep.add("server.sse_dropped", "count", m["sse_events_dropped"], 1, "")
	return nil
}
