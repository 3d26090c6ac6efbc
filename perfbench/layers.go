package main

import (
	"math/rand"
	"runtime/metrics"
	"sync"
	"time"

	"repro/internal/budget"
	"repro/internal/noc"
)

// experimentIDs are the paper campaign's families, in registry order.
var experimentIDs = []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "X1", "X2"}

// perLayer lists every metric a traced run reports; BENCHMARK.json lists
// the same names.
func perLayer() []metricDef {
	defs := []metricDef{
		{"noc.ns_per_cycle.hotspot", "ns"},
		{"noc.ns_per_hop.hotspot", "ns"},
		{"noc.ns_per_cycle.uniform", "ns"},
		{"noc.ns_per_hop.uniform", "ns"},
		{"core.epochs", "count"},
		{"core.us_per_epoch", "us"},
		{"budget.dp_us", "us"},
	}
	for _, id := range experimentIDs {
		defs = append(defs, metricDef{"campaign.exp_s." + id, "s"})
	}
	return append(defs,
		metricDef{"campaign.critical_share", "ratio"},
		metricDef{"results.write_ms", "ms"},
		metricDef{"server.accept_ms.p50", "ms"},
		metricDef{"server.accept_ms.p99", "ms"},
		metricDef{"server.artifact_ms.p50", "ms"},
		metricDef{"server.artifact_ms.p99", "ms"},
		metricDef{"server.cache_hit_ratio", "ratio"},
		metricDef{"server.queue_wait_ms.p50", "ms"},
		metricDef{"server.queue_wait_ms.p99", "ms"},
		metricDef{"server.gate_wait_ms.p99", "ms"},
		metricDef{"server.run_ms.sim.p50", "ms"},
		metricDef{"server.run_ms.sim.p99", "ms"},
		metricDef{"server.run_ms.campaign.p50", "ms"},
		metricDef{"server.shed", "count"},
		metricDef{"server.sse_dropped", "count"},
		metricDef{"dist.shards", "count"},
		metricDef{"dist.dispatches", "count"},
		metricDef{"dist.hedges", "count"},
		metricDef{"dist.retries", "count"},
		metricDef{"dist.shard_rtt_s.p50", "s"},
		metricDef{"dist.shard_rtt_s.max", "s"},
		metricDef{"dist.critical_share", "ratio"},
		metricDef{"dist.merge_ms", "ms"},
		metricDef{"dist.local_s", "s"},
		metricDef{"dist.overhead_ratio", "ratio"},
		metricDef{"runtime.gc_cpu_share", "ratio"},
		metricDef{"runtime.heap_peak_mb", "MiB"},
		metricDef{"gen.lag_ms.p99", "ms"},
		metricDef{"trace.overhead", "ratio"},
	)
}

// isLayerMetric reports whether name is one of perLayer's metrics.
func isLayerMetric(name string) bool {
	for _, d := range perLayer() {
		if d.Name == name {
			return true
		}
	}
	return false
}

// Probe sizes: enough repetitions that the median of a traced run is
// stable, few enough that the probes take about a second.
const (
	hotspotReps  = 30
	uniformReps  = 5
	uniformLoad  = 0.02 // packets per node per cycle
	uniformCycle = 3000
	dpReps       = 15
	dpRequests   = 256
)

// probeLayers times the NoC and the DP allocator through their public
// APIs, outside any campaign.
func probeLayers(seed int64, tr *tracer) *report {
	rep := &report{}
	root := tr.start("probe", "layer probes", 0)
	defer tr.end(root)

	var cyc, hop []float64
	for i := 0; i < hotspotReps; i++ {
		c, h := hotspotWave(tr, root)
		cyc, hop = append(cyc, c), append(hop, h)
	}
	rep.add("noc.ns_per_cycle.hotspot", "ns", median(cyc), len(cyc), "16x16 many-to-one POWER_REQ wave, median of reps")
	rep.add("noc.ns_per_hop.hotspot", "ns", median(hop), len(hop), "per flit-hop")

	rng := rand.New(rand.NewSource(seed))
	cyc, hop = nil, nil
	for i := 0; i < uniformReps; i++ {
		c, h := uniformTraffic(rng, tr, root)
		cyc, hop = append(cyc, c), append(hop, h)
	}
	rep.add("noc.ns_per_cycle.uniform", "ns", median(cyc), len(cyc), "8x8 uniform random, 0.02 packets/node/cycle")
	rep.add("noc.ns_per_hop.uniform", "ns", median(hop), len(hop), "per flit-hop")

	reqs := dpInput(rng)
	alloc := budget.NewDPKnapsack(50)
	var us []float64
	for i := 0; i < dpReps; i++ {
		id := tr.start("budget", "DPKnapsack.Allocate", root)
		t0 := time.Now()
		alloc.Allocate(dpRequests*2000, reqs)
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
		tr.end(id)
	}
	rep.add("budget.dp_us", "us", median(us), len(us), "256 requests, 50 mW quantum")
	return rep
}

// hotspotWave injects one POWER_REQ from every node of a 16x16 mesh to
// the centre manager and steps until the network drains. It returns
// host ns per cycle and per flit-hop of the stepping.
func hotspotWave(tr *tracer, parent int) (nsCycle, nsHop float64) {
	mesh := noc.Mesh{Width: 16, Height: 16}
	net, err := noc.New(mesh, noc.DefaultConfig())
	if err != nil {
		panic(err) // a fixed, valid configuration
	}
	gm := mesh.Center()
	var flitHops int
	net.Attach(gm, func(p *noc.Packet) { flitHops += p.Hops * p.FlitCount() })
	for id := noc.NodeID(0); id < noc.NodeID(mesh.Nodes()); id++ {
		if id != gm {
			if err := net.Inject(&noc.Packet{Src: id, Dst: gm, Type: noc.TypePowerReq}); err != nil {
				panic(err)
			}
		}
	}
	id := tr.start("noc", "Step hotspot", parent)
	t0 := time.Now()
	for net.Busy() {
		net.Step()
	}
	ns := float64(time.Since(t0).Nanoseconds())
	tr.end(id)
	return ns / float64(net.Now()), ns / float64(flitHops)
}

// uniformTraffic offers uniform random traffic (half 1-flit requests,
// half 5-flit replies) to an 8x8 mesh for a fixed number of cycles, then
// drains it. It returns host ns per cycle and per flit-hop.
func uniformTraffic(rng *rand.Rand, tr *tracer, parent int) (nsCycle, nsHop float64) {
	mesh := noc.Mesh{Width: 8, Height: 8}
	net, err := noc.New(mesh, noc.DefaultConfig())
	if err != nil {
		panic(err)
	}
	var flitHops int
	for id := noc.NodeID(0); id < noc.NodeID(mesh.Nodes()); id++ {
		net.Attach(id, func(p *noc.Packet) { flitHops += p.Hops * p.FlitCount() })
	}
	// Draw the whole schedule first so the timed loop is the NoC's work.
	type inj struct {
		cycle    int
		src, dst noc.NodeID
		typ      noc.PacketType
	}
	var plan []inj
	n := mesh.Nodes()
	for c := 0; c < uniformCycle; c++ {
		for s := 0; s < n; s++ {
			if rng.Float64() >= uniformLoad {
				continue
			}
			d := rng.Intn(n - 1)
			if d >= s {
				d++
			}
			typ := noc.TypeMemReadReq
			if rng.Intn(2) == 1 {
				typ = noc.TypeMemReadReply
			}
			plan = append(plan, inj{c, noc.NodeID(s), noc.NodeID(d), typ})
		}
	}
	id := tr.start("noc", "Inject+Step uniform", parent)
	t0 := time.Now()
	next := 0
	for c := 0; c < uniformCycle || net.Busy(); c++ {
		for ; next < len(plan) && plan[next].cycle == c; next++ {
			p := plan[next]
			if err := net.Inject(&noc.Packet{Src: p.src, Dst: p.dst, Type: p.typ}); err != nil {
				panic(err)
			}
		}
		net.Step()
	}
	ns := float64(time.Since(t0).Nanoseconds())
	tr.end(id)
	return ns / float64(net.Now()), ns / float64(flitHops)
}

// dpInput builds a seeded 256-core request set on the Table I DVFS
// ladder.
func dpInput(rng *rand.Rand) []budget.Request {
	levels := []uint32{696, 1012, 1472, 2100, 2920, 3956}
	values := []float64{0.9, 1.6, 2.2, 2.7, 3.1, 3.4}
	reqs := make([]budget.Request, dpRequests)
	for i := range reqs {
		reqs[i] = budget.Request{
			Core:        i,
			RequestMW:   levels[rng.Intn(len(levels))],
			Sensitivity: rng.Float64() * 6,
			LevelsMW:    levels,
			LevelValues: values,
		}
	}
	return reqs
}

// runtimeWatch measures GC CPU share and peak live heap across a pass.
type runtimeWatch struct {
	gc0, total0 float64
	stopc       chan struct{}
	wg          sync.WaitGroup
	mu          sync.Mutex
	peak        uint64
}

// Runtime metric names read from runtime/metrics.
const (
	rmAllocs   = "/gc/heap/allocs:bytes"
	rmHeapObjs = "/memory/classes/heap/objects:bytes"
	rmGCCPU    = "/cpu/classes/gc/total:cpu-seconds"
	rmTotalCPU = "/cpu/classes/total:cpu-seconds"
)

// readRuntime reads runtime/metrics samples by name.
func readRuntime(names ...string) []metrics.Sample {
	s := make([]metrics.Sample, len(names))
	for i, n := range names {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

// allocatedBytes is the Go heap's cumulative allocation count.
func allocatedBytes() uint64 { return readRuntime(rmAllocs)[0].Value.Uint64() }

func startRuntimeWatch() *runtimeWatch {
	s := readRuntime(rmGCCPU, rmTotalCPU)
	w := &runtimeWatch{gc0: s[0].Value.Float64(), total0: s[1].Value.Float64(), stopc: make(chan struct{})}
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			v := readRuntime(rmHeapObjs)[0].Value.Uint64()
			w.mu.Lock()
			if v > w.peak {
				w.peak = v
			}
			w.mu.Unlock()
			select {
			case <-w.stopc:
				return
			case <-t.C:
			}
		}
	}()
	return w
}

// stop ends the watch and reports its metrics into rep.
func (w *runtimeWatch) stop(rep *report) {
	close(w.stopc)
	w.wg.Wait()
	s := readRuntime(rmGCCPU, rmTotalCPU)
	gc, total := s[0].Value.Float64()-w.gc0, s[1].Value.Float64()-w.total0
	share := 0.0
	if total > 0 {
		share = gc / total
	}
	rep.add("runtime.gc_cpu_share", "ratio", share, 1, "GC CPU ÷ all CPU over the traced pass")
	rep.add("runtime.heap_peak_mb", "MiB", float64(w.peak)/(1<<20), 1, "peak live heap objects, sampled every 10 ms")
}
