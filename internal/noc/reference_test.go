package noc

import (
	"math/rand"
	"testing"
)

// refNet is the lock-step reference for Network: the same router pipeline
// written as the plainest possible full sweep. Every cycle visits every
// network interface, every router and every input VC; buffers are plain
// slices, flits are freshly allocated and nothing is pooled, masked or
// kept on a worklist. It shares only the pure pieces of the package with
// Network — Config, Mesh, the routing algorithms, Packet and Flits.
type refNet struct {
	mesh     Mesh
	cfg      Config
	now      uint64
	nextID   uint64
	routers  [][]refVC // per node, input VC (port d, channel v) at d*VCs+v
	saPtr    [][numDirections]int
	queues   [][]*Flit // network-interface source queues
	injVC    []*refVC
	flights  []refFlight // link pipeline, in arrival order
	handlers []Handler
	insp     Inspector
	stats    Stats
}

type refVC struct {
	fifo       []*Flit
	owner      *Packet
	inflight   int
	route      Direction
	routeValid bool
	outVCValid bool
	inspected  bool
	dropping   bool
	dst        *refVC
}

type refFlight struct {
	at  uint64
	f   *Flit
	dst *refVC
}

func newRefNet(mesh Mesh, cfg Config) *refNet {
	n := &refNet{
		mesh:     mesh,
		cfg:      cfg,
		routers:  make([][]refVC, mesh.Nodes()),
		saPtr:    make([][numDirections]int, mesh.Nodes()),
		queues:   make([][]*Flit, mesh.Nodes()),
		injVC:    make([]*refVC, mesh.Nodes()),
		handlers: make([]Handler, mesh.Nodes()),
	}
	for i := range n.routers {
		n.routers[i] = make([]refVC, int(numDirections)*cfg.VCs)
	}
	return n
}

func (v *refVC) free() bool { return v.owner == nil && len(v.fifo) == 0 && v.inflight == 0 }

func (v *refVC) clear() {
	fifo, inflight := v.fifo, v.inflight
	*v = refVC{fifo: fifo, inflight: inflight}
}

func (n *refNet) inject(p *Packet) {
	n.nextID++
	p.ID = n.nextID
	p.InjectedAt = n.now
	p.OriginalPayload = p.Payload
	p.rx = 0
	p.dlDim, p.dlCrossed = 0, false
	n.queues[p.Src] = append(n.queues[p.Src], Flits(p)...)
	n.stats.Injected++
}

func (n *refNet) busy() bool {
	if len(n.flights) > 0 {
		return true
	}
	for id := range n.routers {
		if len(n.queues[id]) > 0 {
			return true
		}
		for v := range n.routers[id] {
			if len(n.routers[id][v].fifo) > 0 {
				return true
			}
		}
	}
	return false
}

func (n *refNet) step() {
	n.now++
	for len(n.flights) > 0 && n.flights[0].at <= n.now {
		fl := n.flights[0]
		n.flights = n.flights[1:]
		fl.dst.fifo = append(fl.dst.fifo, fl.f)
		fl.dst.inflight--
	}
	for id := range n.routers {
		if len(n.queues[id]) > 0 {
			n.injectOne(id)
		}
	}
	for id := range n.routers {
		for v := range n.routers[id] {
			n.routeVC(NodeID(id), &n.routers[id][v])
		}
	}
	for id := range n.routers {
		for v := range n.routers[id] {
			n.allocateVC(NodeID(id), &n.routers[id][v])
		}
	}
	for id := range n.routers {
		var used [numDirections]bool
		for out := Local; out < numDirections; out++ {
			n.arbitrate(NodeID(id), out, &used)
		}
	}
}

func (n *refNet) injectOne(id int) {
	f := n.queues[id][0]
	if f.IsHead() {
		lo, hi := n.cfg.classVCRange(f.Packet.Class)
		var target *refVC
		for v := lo; v < hi; v++ { // the Local input port is direction 0
			if vc := &n.routers[id][v]; vc.free() {
				target = vc
				break
			}
		}
		if target == nil {
			return
		}
		target.owner = f.Packet
		n.injVC[id] = target
	}
	vc := n.injVC[id]
	if vc == nil || len(vc.fifo)+vc.inflight >= n.cfg.BufDepth {
		return
	}
	vc.fifo = append(vc.fifo, f)
	n.queues[id] = n.queues[id][1:]
	if f.IsTail() {
		n.injVC[id] = nil
	}
}

func (n *refNet) dropBuffered(vc *refVC) {
	for len(vc.fifo) > 0 {
		f := vc.fifo[0]
		vc.fifo = vc.fifo[1:]
		if f.IsTail() {
			n.stats.DroppedPackets++
			vc.clear()
			return
		}
	}
}

func (n *refNet) routeVC(id NodeID, vc *refVC) {
	if vc.dropping {
		n.dropBuffered(vc)
		return
	}
	if len(vc.fifo) == 0 || vc.routeValid || !vc.fifo[0].IsHead() {
		return
	}
	p := vc.fifo[0].Packet
	if !vc.inspected {
		if n.insp != nil {
			switch n.insp.InspectRC(id, p) {
			case VerdictDrop:
				vc.dropping = true
				vc.inspected = true
				n.dropBuffered(vc)
				return
			case VerdictLoopback:
				p.Dst = p.Src
				p.LoopedBack = true
			}
		}
		vc.inspected = true
		p.Hops++
	}
	free := func(d Direction) bool {
		nb, ok := n.mesh.Neighbor(id, d)
		if !ok {
			return false
		}
		lo, hi := n.cfg.classVCRange(p.Class)
		for v := lo; v < hi; v++ {
			if n.routers[nb][int(d.Opposite())*n.cfg.VCs+v].free() {
				return true
			}
		}
		return false
	}
	vc.route = n.cfg.classRouting(p.Class).Route(n.mesh, id, p.Dst, free)
	vc.routeValid = true
}

func (n *refNet) allocateVC(id NodeID, vc *refVC) {
	if len(vc.fifo) == 0 || !vc.routeValid || vc.outVCValid || vc.route == Local || !vc.fifo[0].IsHead() {
		return
	}
	nb, ok := n.mesh.Neighbor(id, vc.route)
	if !ok {
		return
	}
	p := vc.fifo[0].Packet
	lo, hi := n.cfg.classVCRange(p.Class)
	_, dateline := n.cfg.classRouting(p.Class).(WrapRouting)
	dim := dimOf(vc.route)
	crossed := p.dlCrossed && p.dlDim == dim
	wrap := n.mesh.wrapsAt(id, vc.route)
	if dateline {
		if half := (hi - lo) / 2; crossed || wrap {
			lo += half
		} else {
			hi = lo + half
		}
	}
	for out := lo; out < hi; out++ {
		dvc := &n.routers[nb][int(vc.route.Opposite())*n.cfg.VCs+out]
		if dvc.free() {
			dvc.owner = p
			vc.outVCValid, vc.dst = true, dvc
			if dateline {
				p.dlDim, p.dlCrossed = dim, crossed || wrap
			}
			return
		}
	}
}

func (n *refNet) arbitrate(id NodeID, out Direction, used *[numDirections]bool) {
	vcs := n.routers[id]
	for k := 0; k < len(vcs); k++ {
		idx := (n.saPtr[id][out] + k) % len(vcs)
		vc := &vcs[idx]
		d := idx / n.cfg.VCs
		if used[d] || len(vc.fifo) == 0 || !vc.routeValid || vc.route != out {
			continue
		}
		if out != Local && (!vc.outVCValid || len(vc.dst.fifo)+vc.dst.inflight >= n.cfg.BufDepth) {
			continue
		}
		f := vc.fifo[0]
		vc.fifo = vc.fifo[1:]
		used[d] = true
		n.saPtr[id][out] = (idx + 1) % len(vcs)
		if out == Local {
			n.deliver(id, f)
		} else {
			vc.dst.inflight++
			n.flights = append(n.flights, refFlight{
				at:  n.now + uint64(n.cfg.RouterCycles+n.cfg.LinkCycles),
				f:   f,
				dst: vc.dst,
			})
		}
		if f.IsTail() {
			vc.clear()
		}
		return
	}
}

func (n *refNet) deliver(id NodeID, f *Flit) {
	p := f.Packet
	p.rx++
	if !f.IsTail() {
		return
	}
	p.DeliveredAt = n.now
	n.stats.Delivered++
	n.stats.HopSum += uint64(p.Hops)
	n.stats.DeliveredBy[p.Type]++
	n.stats.LatencySumBy[p.Type] += p.DeliveredAt - p.InjectedAt
	if p.Type == TypePowerReq && p.Tampered {
		n.stats.TamperedPowerReq++
	}
	if p.LoopedBack {
		n.stats.LoopedBack++
	}
	if h := n.handlers[id]; h != nil {
		h(p)
	}
}

// hashInspector is a deterministic Trojan whose verdict is a pure function
// of (router, packet ID, hop count), so two networks stepping the same
// traffic see the same verdicts at the same inspections. Rates are out of
// 256 per inspection.
type hashInspector struct {
	seed               uint64
	drop, loop, tamper uint64
}

func (h hashInspector) InspectRC(router NodeID, p *Packet) Verdict {
	x := h.seed ^ uint64(router)*0x9e3779b97f4a7c15 ^ p.ID*0xbf58476d1ce4e5b9 ^ uint64(p.Hops)<<40
	x ^= x >> 31
	x *= 0x94d049bb133111eb
	x ^= x >> 29
	switch r := x & 0xff; {
	case r < h.drop:
		return VerdictDrop
	case r < h.drop+h.loop && !p.LoopedBack:
		return VerdictLoopback
	}
	if (x>>8)&0xff < h.tamper && p.Type == TypePowerReq {
		p.Payload, p.Tampered = 0, true
	}
	return VerdictForward
}

// delivery is one packet delivery as a handler observed it.
type delivery struct {
	cycle    uint64
	node     NodeID
	id       uint64
	src, dst NodeID
	typ      PacketType
	class    int
	payload  uint32
	hops     int
	latency  uint64
	looped   bool
	tampered bool
}

// lockstepCase is one fuzzed network configuration and traffic pattern.
type lockstepCase struct {
	wrap                     bool
	width, height            uint8
	vcs, depth, routing      uint8
	alt                      bool
	drop, loop, tamper, load uint8
	seed                     int64
}

// config maps the fuzzed bytes onto a valid network: 2–10 nodes a side,
// 1–16 VCs, 1–6 flit buffers, and xy, west-first or torus-xy routing
// (torus-xy forces a wrapped topology), with YX as the alternate class.
// The VC count is raised to what Config.Validate needs.
func (c lockstepCase) config() (Mesh, Config) {
	mesh := Mesh{Width: 2 + int(c.width)%9, Height: 2 + int(c.height)%9, Wrap: c.wrap}
	cfg := DefaultConfig()
	cfg.VCs = 1 + int(c.vcs)%16
	cfg.BufDepth = 1 + int(c.depth)%6
	switch c.routing % 3 {
	case 1:
		cfg.Routing = WestFirstRouting{}
	case 2:
		cfg.Routing = TorusRouting{}
		mesh.Wrap = true
	}
	if c.alt {
		cfg.AltRouting = YXRouting{}
	}
	for cfg.Validate() != nil {
		cfg.VCs++
	}
	return mesh, cfg
}

// runLockstep steps a Network and the reference side by side through the
// same traffic and fails at the first cycle their deliveries, statistics
// or busy state differ. It returns the final statistics.
func runLockstep(t *testing.T, c lockstepCase) Stats {
	t.Helper()
	mesh, cfg := c.config()
	net, err := New(mesh, cfg)
	if err != nil {
		t.Fatalf("New(%+v, %+v): %v", mesh, cfg, err)
	}
	ref := newRefNet(mesh, cfg)
	insp := hashInspector{seed: uint64(c.seed), drop: uint64(c.drop) / 8, loop: uint64(c.loop) / 8, tamper: uint64(c.tamper)}
	if c.drop|c.loop|c.tamper != 0 {
		net.SetInspector(insp)
		ref.insp = insp
	}
	var got, want []delivery
	record := func(log *[]delivery, now func() uint64, node NodeID, inject func(*Packet)) Handler {
		return func(p *Packet) {
			*log = append(*log, delivery{now(), node, p.ID, p.Src, p.Dst, p.Type, p.Class,
				p.Payload, p.Hops, p.DeliveredAt - p.InjectedAt, p.LoopedBack, p.Tampered})
			// Answer reads from inside the handler, as the cache
			// hierarchy does.
			if p.Type == TypeMemReadReq && p.Src != node {
				inject(&Packet{Src: node, Dst: p.Src, Type: TypeMemReadReply, Class: p.Class, Payload: p.Payload})
			}
		}
	}
	for id := NodeID(0); id < NodeID(mesh.Nodes()); id++ {
		net.Attach(id, record(&got, net.Now, id, func(p *Packet) {
			if err := net.Inject(p); err != nil {
				t.Fatalf("handler Inject: %v", err)
			}
		}))
		ref.handlers[id] = record(&want, func() uint64 { return ref.now }, id, ref.inject)
	}

	rng := rand.New(rand.NewSource(c.seed))
	types := []PacketType{TypePowerReq, TypePowerGrant, TypeMemReadReq, TypeMemReadReply, TypeMemWriteReq}
	options := [][]uint32{nil, {1}, {1, 2, 3}}
	const injectCycles, drainCycles = 150, 1500
	for cycle := 0; cycle < injectCycles+drainCycles; cycle++ {
		if cycle < injectCycles {
			for src := 0; src < mesh.Nodes(); src++ {
				if rng.Intn(256) >= int(c.load)/4 {
					continue
				}
				spec := Packet{
					Src:     NodeID(src),
					Dst:     NodeID(rng.Intn(mesh.Nodes())),
					Type:    types[rng.Intn(len(types))],
					Payload: rng.Uint32(),
					Options: options[rng.Intn(len(options))],
				}
				if c.alt {
					spec.Class = rng.Intn(2)
				}
				a, b := spec, spec
				if err := net.Inject(&a); err != nil {
					t.Fatalf("Inject: %v", err)
				}
				ref.inject(&b)
			}
		} else if !ref.busy() && !net.Busy() {
			break
		}
		net.Step()
		ref.step()
		checkInvariants(t, net)
		if len(got) != len(want) {
			t.Fatalf("cycle %d: network delivered %+v, reference %+v", net.Now(), got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("cycle %d: delivery %d = %+v, reference %+v", net.Now(), i, got[i], want[i])
			}
		}
		if net.Stats() != ref.stats {
			t.Fatalf("cycle %d: stats %+v, reference %+v", net.Now(), net.Stats(), ref.stats)
		}
		if net.Busy() != ref.busy() {
			t.Fatalf("cycle %d: Busy() = %v, reference %v", net.Now(), net.Busy(), ref.busy())
		}
		got, want = got[:0], want[:0]
	}
	return net.Stats()
}

// checkInvariants holds the network's bookkeeping to the state it
// summarises: every VC mask to its predicate over the VC's fields, every
// waiting head to a head flit, the VA wake list to the routers where an
// allocation could succeed, and the live-flit count to the flits actually
// queued, buffered and on links.
func checkInvariants(t *testing.T, n *Network) {
	t.Helper()
	has := func(b bitset, i int) bool { return b[i>>6]>>(i&63)&1 == 1 }
	free := func(vc *vcState) bool { return vc.owner == nil && vc.n == 0 && vc.inflight == 0 }
	live := n.inflLen
	for _, ni := range n.nis {
		live += ni.qlen()
	}
	for _, r := range n.routers {
		for i := range r.vcs {
			vc := &r.vcs[i]
			live += int(vc.n)
			waiting := vc.routeValid && vc.route != Local && vc.reservedDst == nil
			for _, m := range []struct {
				name       string
				mask, want bool
			}{
				{"occ", has(r.occ, i), vc.n > 0},
				{"free", has(r.free, i), free(vc)},
				{"va", has(r.va, i), waiting},
				{"ready", has(r.ready, i), vc.routeValid && (vc.route == Local || vc.reservedDst != nil)},
			} {
				if m.mask != m.want {
					t.Fatalf("cycle %d: router %d VC %d: %s bit %v, predicate %v (%+v)", n.now, r.id, i, m.name, m.mask, m.want, *vc)
				}
			}
			if vc.inflight < 0 {
				t.Fatalf("cycle %d: router %d VC %d: inflight %d", n.now, r.id, i, vc.inflight)
			}
			if !waiting {
				continue
			}
			if vc.n == 0 || !vc.peek().IsHead() {
				t.Fatalf("cycle %d: router %d VC %d waits for a VC without a head flit", n.now, r.id, i)
			}
			if has(n.vaWake, int(r.id)) {
				continue
			}
			nb := n.nbr[int(r.id)*int(numDirections)+int(vc.route)]
			for d := vc.vaLo; d < vc.vaHi; d++ {
				if free(&nb.vcs[d]) {
					t.Fatalf("cycle %d: router %d VC %d waits off the wake list while router %d VC %d is free", n.now, r.id, i, nb.id, d)
				}
			}
		}
	}
	if live != n.liveFlits {
		t.Fatalf("cycle %d: liveFlits %d, but %d flits are queued, buffered or on links", n.now, n.liveFlits, live)
	}
}

// lockstepSeeds covers each fuzzed axis at least once: topology, size
// (beyond 64 nodes), VC count (beyond 64 input VCs per router), buffer
// depth, routing algorithm, alternate class and every Trojan verdict.
var lockstepSeeds = []lockstepCase{
	{width: 2, height: 2, vcs: 3, depth: 4, load: 64, seed: 1},                                     // 4×4 mesh, Table I
	{wrap: true, width: 2, height: 2, vcs: 3, depth: 4, routing: 2, load: 64, seed: 2},             // 4×4 torus
	{width: 7, height: 7, vcs: 3, depth: 4, load: 48, seed: 3},                                     // 9×9 mesh, 81 nodes
	{wrap: true, width: 8, height: 5, vcs: 3, depth: 4, routing: 2, load: 32, seed: 4},             // 10×7 torus, 70 nodes
	{width: 3, height: 3, vcs: 12, depth: 4, load: 96, seed: 5},                                    // 13 VCs: 65 input VCs
	{wrap: true, width: 3, height: 2, vcs: 15, depth: 2, routing: 2, load: 96, seed: 6},            // 16 VCs on a torus
	{width: 4, height: 3, vcs: 0, depth: 0, load: 64, seed: 7},                                     // 1 VC, 1-flit buffers
	{width: 4, height: 4, vcs: 1, depth: 0, load: 128, seed: 8},                                    // 2 VCs, 1-flit buffers
	{width: 4, height: 4, vcs: 3, depth: 5, routing: 1, load: 128, seed: 9},                        // west-first
	{width: 4, height: 3, vcs: 3, depth: 4, alt: true, load: 96, seed: 10},                         // XY + YX classes
	{wrap: true, width: 3, height: 3, vcs: 7, depth: 4, routing: 2, alt: true, load: 64, seed: 11}, // torus-xy + YX
	{width: 4, height: 4, vcs: 3, depth: 4, drop: 160, load: 96, seed: 12},                         // drop verdicts
	{width: 4, height: 4, vcs: 3, depth: 4, loop: 200, load: 96, seed: 13},                         // loopback verdicts
	{width: 5, height: 5, vcs: 3, depth: 4, tamper: 128, load: 96, seed: 14},                       // payload tampering
	{wrap: true, width: 8, height: 8, vcs: 13, depth: 2, routing: 2, alt: true, drop: 64, loop: 64, tamper: 64, load: 64, seed: 15},
	{width: 8, height: 8, vcs: 14, depth: 3, routing: 1, alt: true, drop: 48, loop: 96, tamper: 96, load: 160, seed: 16},
}

// TestStepLockstepSeeds runs the seed corpus and checks that it is not
// vacuous: between them the seeds deliver traffic and exercise every
// Trojan verdict.
func TestStepLockstepSeeds(t *testing.T) {
	var sum Stats
	for _, c := range lockstepSeeds {
		s := runLockstep(t, c)
		sum.Delivered += s.Delivered
		sum.DroppedPackets += s.DroppedPackets
		sum.LoopedBack += s.LoopedBack
		sum.TamperedPowerReq += s.TamperedPowerReq
	}
	if sum.Delivered == 0 || sum.DroppedPackets == 0 || sum.LoopedBack == 0 || sum.TamperedPowerReq == 0 {
		t.Errorf("seed corpus leaves an axis unexercised: %+v", sum)
	}
}

// FuzzStepLockstep holds Network to the reference sweep over fuzzed
// topologies, sizes, VC counts, buffer depths, routing algorithms, traffic
// classes, Trojan verdicts and loads.
func FuzzStepLockstep(f *testing.F) {
	for _, c := range lockstepSeeds {
		f.Add(c.wrap, c.width, c.height, c.vcs, c.depth, c.routing, c.alt, c.drop, c.loop, c.tamper, c.load, c.seed)
	}
	f.Fuzz(func(t *testing.T, wrap bool, width, height, vcs, depth, routing uint8, alt bool, drop, loop, tamper, load uint8, seed int64) {
		_ = runLockstep(t, lockstepCase{wrap, width, height, vcs, depth, routing, alt, drop, loop, tamper, load, seed})
	})
}
