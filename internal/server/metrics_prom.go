package server

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/histo"
)

// This file renders a metricsView in the Prometheus text exposition
// format (version 0.0.4): one HELP and one TYPE line per metric family,
// then its samples, in a fixed order so scrapes diff cleanly. The same
// view also feeds the JSON rendering, which keeps the two formats
// consistent within a single scrape; the load harness joins its
// client-side BENCH_SERVE.json numbers against these server-side series
// (see DESIGN.md §10 for the join contract).

// promContentType is the exposition-format content type for 0.0.4.
const promContentType = "text/plain; version=0.0.4; charset=utf-8"

// promNamespace prefixes every exported metric family.
const promNamespace = "htserved"

// writePrometheus renders the view. Family order is fixed: ops dashboards
// and the exposition validator both rely on a deterministic scrape.
func (v metricsView) writePrometheus(w io.Writer) error {
	var b strings.Builder

	gauge := func(name, help string, value float64) {
		fmt.Fprintf(&b, "# HELP %s_%s %s\n# TYPE %s_%s gauge\n%s_%s %s\n",
			promNamespace, name, help, promNamespace, name, promNamespace, name, promFloat(value))
	}
	counter := func(name, help string, value int64) {
		fmt.Fprintf(&b, "# HELP %s_%s %s\n# TYPE %s_%s counter\n%s_%s %d\n",
			promNamespace, name, help, promNamespace, name, promNamespace, name, value)
	}

	gauge("uptime_seconds", "Seconds since the service started.", v.uptime)

	counter("jobs_submitted_total", "Accepted submissions, cache-served included.", v.jobsSubmitted)
	counter("jobs_rejected_total", "Submissions shed with 429 backpressure.", v.jobsRejected)
	counter("jobs_started_total", "Jobs that entered execution (cache-served submissions and single-flight followers never start).", v.jobsStarted)
	counter("jobs_done_total", "Jobs that reached the done state.", v.jobsDone)
	counter("jobs_failed_total", "Jobs that reached the failed state.", v.jobsFailed)
	counter("jobs_cancelled_total", "Jobs cancelled while queued or running.", v.jobsCancelled)
	counter("jobs_timed_out_total", "Failed jobs whose cause was the --job-timeout deadline (also in jobs_failed_total).", v.jobsTimedOut)

	gauge("queue_depth", "Jobs waiting in the priority-lane job queue (all lanes).", float64(v.queued))
	gauge("jobs_running", "Jobs currently executing.", float64(v.running))

	// The cache tiers share one family: tier=memory|disk hits, tier=miss
	// lookups that went to the queue.
	fmt.Fprintf(&b, "# HELP %s_cache_lookups_total Content-addressed cache lookups at submission time, by outcome tier.\n", promNamespace)
	fmt.Fprintf(&b, "# TYPE %s_cache_lookups_total counter\n", promNamespace)
	fmt.Fprintf(&b, "%s_cache_lookups_total{tier=\"memory\"} %d\n", promNamespace, v.cacheHits)
	fmt.Fprintf(&b, "%s_cache_lookups_total{tier=\"disk\"} %d\n", promNamespace, v.cacheDiskHits)
	fmt.Fprintf(&b, "%s_cache_lookups_total{tier=\"miss\"} %d\n", promNamespace, v.cacheMisses)

	counter("cache_corrupt_total", "Disk-tier entries that failed checksum verification and were quarantined.", v.cacheCorrupt)
	counter("single_flight_total", "Submissions coalesced onto an identical in-flight job.", v.singleFlight)
	counter("panics_recovered_total", "Panics contained by the per-job and per-request recovery layers.", v.panicsRecovered)

	counter("sse_events_dropped_total", "Events dropped from slow SSE subscribers' buffers (drop-oldest).", v.sseDropped)
	gauge("sse_subscribers", "Live SSE subscribers across all jobs.", float64(v.subscribers))

	counter("epochs_observed_total", "Per-epoch samples observed across all jobs.", v.epochs)
	gauge("epochs_per_second", "Aggregate simulation throughput since start.", v.epochsPerSec)

	// Distributed execution: worker-side shard executions, coordinator-side
	// retries and shard-cache hits, plus per-worker dispatch and per-tenant
	// shed breakdowns. The scalar families are always present (dashboards
	// and the CI smoke alert on them existing at zero); the labeled ones
	// emit a sample per key seen so far, sorted for deterministic scrapes.
	counter("shards_executed_total", "Campaign shards executed by this process as a worker.", v.shardsExecuted)
	counter("shard_retries_total", "Shard dispatch attempts redispatched after a worker failure or timeout.", v.shardRetries)
	counter("shard_cache_hits_total", "Shards answered from the coordinator's content-addressed shard cache.", v.shardCacheHits)
	fmt.Fprintf(&b, "# HELP %s_shards_dispatched_total Shard dispatch attempts, by worker URL.\n", promNamespace)
	fmt.Fprintf(&b, "# TYPE %s_shards_dispatched_total counter\n", promNamespace)
	for _, worker := range sortedKeys(v.shardsDispatched) {
		fmt.Fprintf(&b, "%s_shards_dispatched_total{worker=%q} %d\n", promNamespace, worker, v.shardsDispatched[worker])
	}
	fmt.Fprintf(&b, "# HELP %s_tenant_shed_total Submissions shed by a per-tenant quota (also in jobs_rejected_total), by tenant.\n", promNamespace)
	fmt.Fprintf(&b, "# TYPE %s_tenant_shed_total counter\n", promNamespace)
	for _, tenant := range sortedKeys(v.shedByTenant) {
		fmt.Fprintf(&b, "%s_tenant_shed_total{tenant=%q} %d\n", promNamespace, tenant, v.shedByTenant[tenant])
	}

	// Durability & lifecycle: the write-ahead job journal, the shard
	// checkpoint store, straggler hedging, and the per-worker circuit
	// breaker. Always present (the crash-recovery CI smoke asserts on
	// journal_replayed_total and shards_resumed_total directly).
	counter("journal_appends_total", "Accepted submissions made durable in the write-ahead journal.", v.journalAppends)
	counter("journal_replayed_total", "Journaled jobs re-enqueued at boot after a crash or restart.", v.journalReplayed)
	counter("shards_checkpointed_total", "Completed shard results spilled to the checkpoint store.", v.shardsCheckpointed)
	counter("shards_resumed_total", "Shards answered from the checkpoint store instead of recomputed.", v.shardsResumed)
	counter("shard_hedges_total", "Speculative straggler redispatches (first byte-complete result wins).", v.shardHedges)
	counter("worker_breaker_opens_total", "Per-worker circuit-breaker closed-to-open transitions.", v.breakerOpens)

	// Latency histograms: the end-to-end job duration plus its span-fed
	// decomposition (queue residency, gate wait, per-shard round trips).
	// All share the job-duration bucket layout so attribution percentiles
	// line up across families.
	renderHistogram(&b, "job_duration_seconds", "Job submission-to-terminal wall time.", v.jobDuration)
	renderHistogram(&b, "queue_wait_seconds", "Job residency in the admission queue before dispatch.", v.queueWait)
	renderHistogram(&b, "gate_wait_seconds", "Job wait on the execution concurrency gate.", v.gateWait)
	renderHistogram(&b, "shard_rtt_seconds", "Coordinator-side shard dispatch round-trip time (successful attempts).", v.shardRTT)

	// Go runtime health, sampled at scrape time.
	gauge("go_goroutines", "Live goroutines at scrape time.", float64(v.goroutines))
	gauge("go_heap_alloc_bytes", "Heap bytes in use at scrape time.", float64(v.heapAlloc))
	fmt.Fprintf(&b, "# HELP %s_go_gc_pause_seconds_total Cumulative GC stop-the-world pause time.\n# TYPE %s_go_gc_pause_seconds_total counter\n%s_go_gc_pause_seconds_total %s\n",
		promNamespace, promNamespace, promNamespace, promFloat(v.gcPauseTotal))

	// Fault-injection tallies appear only when the registry is armed,
	// exactly like the JSON rendering.
	if v.faults != nil {
		points := make([]string, 0, len(v.faults))
		for p := range v.faults {
			points = append(points, p)
		}
		sort.Strings(points)
		fmt.Fprintf(&b, "# HELP %s_faults_injected_total Faults fired by the injection registry, by point.\n", promNamespace)
		fmt.Fprintf(&b, "# TYPE %s_faults_injected_total counter\n", promNamespace)
		for _, p := range points {
			fmt.Fprintf(&b, "%s_faults_injected_total{point=%q} %d\n", promNamespace, p, v.faults[p])
		}
	}

	_, err := io.WriteString(w, b.String())
	return err
}

// renderHistogram writes one histogram family in exposition order:
// cumulative buckets, the +Inf catch-all, then _sum and _count.
func renderHistogram(b *strings.Builder, name, help string, h *histo.Histogram) {
	fmt.Fprintf(b, "# HELP %s_%s %s\n", promNamespace, name, help)
	fmt.Fprintf(b, "# TYPE %s_%s histogram\n", promNamespace, name)
	for _, bk := range h.Cumulative() {
		fmt.Fprintf(b, "%s_%s_bucket{le=\"%s\"} %d\n", promNamespace, name, promFloat(bk.Le), bk.Count)
	}
	fmt.Fprintf(b, "%s_%s_bucket{le=\"+Inf\"} %d\n", promNamespace, name, h.Count())
	fmt.Fprintf(b, "%s_%s_sum %s\n", promNamespace, name, promFloat(h.Sum()))
	fmt.Fprintf(b, "%s_%s_count %d\n", promNamespace, name, h.Count())
}

// promFloat formats a sample value or le bound the way Prometheus does:
// shortest round-trip representation.
func promFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// sortedKeys returns a map's keys sorted, for deterministic label order.
func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
