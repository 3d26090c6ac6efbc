package main

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/server"
)

// distExperiments is the dist-campaign spec's experiment list: the
// shardable analytic families, the E9 placement study (one atomic
// shard), and the X1 attack-class comparison, all at paper defaults.
var distExperiments = []string{"E3", "E4", "E5", "E6", "E9", "X1"}

// distWorkers is the number of in-process one-core workers.
const distWorkers = 2

// distSlot is the budget one distributed campaign (about 11 s on a
// 2-vCPU machine) stands for. It is shorter than paperSlot because
// hedging makes this workload's campaigns vary more, so a run takes the
// median of more of them.
const distSlot = 7 * time.Second

// distSpec renders the dist-campaign spec for one submission's seed.
func distSpec(seed int64) string {
	s := fmt.Sprintf(`{"name":"dist","seed":%d,"experiments":[`, seed)
	for i, id := range distExperiments {
		if i > 0 {
			s += ","
		}
		s += `{"id":"` + id + `"}`
	}
	return s + "]}"
}

// distPool is a coordinator and its workers.
type distPool struct {
	coord   *served
	workers []*served
}

func (p *distPool) close() {
	if p.coord != nil {
		p.coord.close()
	}
	for _, w := range p.workers {
		w.close()
	}
}

// runDistCampaign is the dist-campaign workload: one caller POSTs a
// campaign to an in-process coordinator (default options, hedging
// included) backed by two in-process workers of Workers = 1, and waits
// for the terminal SSE event. Each submission goes to a freshly built
// coordinator and workers, so no cache answers it and every submission
// starts from the same hedging state; the campaign seed derives from the
// workload seed.
func runDistCampaign(e *env) error {
	c := h2cClient()
	defer c.CloseIdleConnections()
	body := distSpec(positiveSeed(e.seed, "dist"))
	var pool *distPool
	closePool := func() {
		if pool != nil {
			pool.close()
			pool = nil
		}
	}
	defer closePool()
	build := func() error {
		pool = &distPool{}
		if _, err := campaign.ParseSpec([]byte(body)); err != nil {
			return err
		}
		var urls []string
		for i := 0; i < distWorkers; i++ {
			w, err := startServed(e.ctx, c, server.Options{Workers: 1})
			if err != nil {
				return err
			}
			pool.workers = append(pool.workers, w)
			urls = append(urls, w.base)
		}
		var err error
		pool.coord, err = startServed(e.ctx, c, server.Options{WorkerURLs: urls})
		return err
	}
	setup, n, err := timeSetup(build, closePool)
	if err != nil {
		return err
	}
	e.rep.add("setup_s", "s", setup, n, "two workers and a coordinator until the coordinator's /v1/healthz answers 200, median")

	// Untimed: the same spec through the local campaign engine.
	var epochs atomic.Int64
	t0 := time.Now()
	local := e.tr.start("campaign", "campaign.BuildTables dist spec", 0)
	ref, err := campaignReference(e.ctx, body, e.nproc, campaign.Progress{Epoch: func(string, core.EpochSample) { epochs.Add(1) }})
	e.tr.end(local)
	localWall := time.Since(t0)
	if err != nil {
		return err
	}

	var walls, allocs []float64
	for i := 0; i < e.campaigns(distSlot); i++ {
		if i > 0 {
			closePool()
			if err := build(); err != nil {
				return err
			}
		}
		root := e.tr.start("dist", "POST /v1/campaigns → terminal event", 0)
		a0 := allocatedBytes()
		t0 := time.Now()
		st, err := submit(e.ctx, c, pool.coord.base+"/v1/campaigns", body)
		if err == nil {
			_, _, err = waitTerminal(e.ctx, c, pool.coord.base, st.ID)
		}
		wall := time.Since(t0)
		a1 := allocatedBytes()
		e.tr.end(root)
		e.rep.Attempted++
		if err != nil {
			e.rep.fail("dist-campaign", err)
			continue
		}
		if err := checkMerged(e, pool.coord.base, c, st.ID, ref); err != nil {
			e.rep.fail("dist-campaign", err)
			continue
		}
		walls = append(walls, wall.Seconds())
		allocs = append(allocs, float64(a1-a0)/(1<<20))
		if e.tr != nil {
			if err := distLayers(e, c, pool.coord.base, st.ID, body, wall, localWall); err != nil {
				return err
			}
		}
	}
	if len(walls) == 0 {
		return fmt.Errorf("no distributed campaign finished: %v", e.rep.Errors)
	}
	e.rep.addMedian("campaign_s", "s", walls, "POST → terminal SSE event, median of campaigns")
	e.rep.add("epochs_per_s", "1/s", float64(epochs.Load())/median(walls), len(walls), "attacked epochs (counted in the local reference) ÷ campaign_s")
	e.rep.addMedian("alloc_mb", "MiB", allocs, "Go heap allocated per campaign, coordinator and workers together")
	return nil
}

// checkMerged fetches every JSON and CSV artifact of a distributed job
// and compares it with the local BuildTables rendering.
func checkMerged(e *env, base string, c *http.Client, id string, ref map[string][]byte) error {
	var names []string
	for name := range ref {
		if name[len(name)-4:] != ".txt" {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		b, err := getArtifact(e.ctx, c, base, id, name)
		if err != nil {
			return err
		}
		if err := sameBytes(name, b, ref[name]); err != nil {
			return fmt.Errorf("merged tables differ from local BuildTables: %w", err)
		}
	}
	return nil
}

// distLayers reports the shard protocol's layer metrics from the
// coordinator job's span tree.
func distLayers(e *env, c *http.Client, base, id, body string, wall, local time.Duration) error {
	spec, err := campaign.ParseSpec([]byte(body))
	if err != nil {
		return err
	}
	// The coordinator's default shard cap: twice the static pool.
	shards, err := campaign.PlanShards(spec, 2*distWorkers)
	if err != nil {
		return err
	}
	root, err := jobTrace(e.ctx, c, base, id)
	if err != nil {
		return err
	}
	var rtts []float64
	var dispatches, hedges, retries int
	var merge float64
	root.walk(func(n *traceNode) {
		switch n.Name {
		case "shard.dispatch":
			dispatches++
			rtts = append(rtts, n.DurationSeconds)
			if n.Attrs["hedged"] == "true" {
				hedges++
			} else if a, _ := strconv.Atoi(n.Attrs["attempt"]); a > 0 {
				retries++
			}
		case "dist.merge":
			merge += n.DurationSeconds
		}
	})
	rtt := summarize(rtts)
	e.rep.add("dist.shards", "count", float64(len(shards)), 1, "campaign.PlanShards with the default cap")
	e.rep.add("dist.dispatches", "count", float64(dispatches), 1, "shard.dispatch spans")
	e.rep.add("dist.hedges", "count", float64(hedges), 1, "hedged dispatches")
	e.rep.add("dist.retries", "count", float64(retries), 1, "re-dispatches after a failed attempt")
	e.rep.add("dist.shard_rtt_s.p50", "s", rtt.Median, rtt.N, "p50")
	e.rep.add("dist.shard_rtt_s.max", "s", rtt.Max, rtt.N, "max")
	e.rep.add("dist.critical_share", "ratio", rtt.Max/wall.Seconds(), 1, "largest shard RTT ÷ campaign_s")
	e.rep.add("dist.merge_ms", "ms", merge*1e3, 1, "dist.merge span")
	e.rep.add("dist.local_s", "s", local.Seconds(), 1, "same spec through local campaign.BuildTables")
	e.rep.add("dist.overhead_ratio", "ratio", wall.Seconds()/local.Seconds(), 1, "campaign_s ÷ dist.local_s")
	return nil
}
