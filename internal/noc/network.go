package noc

import (
	"errors"
	"fmt"
	"math/bits"
)

// Config holds the NoC parameters of Table I.
type Config struct {
	// VCs is the number of virtual channels per input port (Table I: 4).
	VCs int
	// BufDepth is the per-VC flit buffer depth (Table I: 5).
	BufDepth int
	// RouterCycles is the router pipeline latency (Table I: 2).
	RouterCycles int
	// LinkCycles is the link traversal latency (Table I: 1).
	LinkCycles int
	// Routing selects the routing algorithm (Table I: XY).
	Routing RoutingAlgorithm
	// AltRouting optionally enables a second traffic class with its own
	// routing algorithm on its own half of the virtual channels. Packets
	// select the class through Packet.Class. VC partitioning keeps the two
	// classes from waiting on each other, so a deadlock-free pair such as
	// XY + YX stays deadlock-free combined. Nil disables the second class.
	AltRouting RoutingAlgorithm
}

// DefaultConfig returns the Table I on-chip-network configuration.
func DefaultConfig() Config {
	return Config{
		VCs:          4,
		BufDepth:     5,
		RouterCycles: 2,
		LinkCycles:   1,
		Routing:      XYRouting{},
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.VCs < 1:
		return errors.New("noc: config needs at least one virtual channel")
	case c.BufDepth < 1:
		return errors.New("noc: config needs buffer depth of at least one flit")
	case c.RouterCycles < 1 || c.LinkCycles < 0:
		return errors.New("noc: config has invalid pipeline latencies")
	case c.Routing == nil:
		return errors.New("noc: config needs a routing algorithm")
	case c.AltRouting != nil && c.VCs < 2:
		return errors.New("noc: a second traffic class needs at least two virtual channels")
	}
	// Dateline VC management splits a class's VC range in half, so every
	// wrap-routed class needs at least two channels of its own.
	for class := 0; class < 2; class++ {
		if _, wrap := c.classRouting(class).(WrapRouting); !wrap {
			continue
		}
		if lo, hi := c.classVCRange(class); hi-lo < 2 {
			return errors.New("noc: wraparound routing needs at least two virtual channels per traffic class (for dateline management)")
		}
	}
	return nil
}

// classVCRange returns the [lo, hi) input-VC indices packets of the given
// class may occupy. Without an alternate class, class 0 owns every VC.
func (c Config) classVCRange(class int) (lo, hi int) {
	if c.AltRouting == nil {
		return 0, c.VCs
	}
	half := c.VCs / 2
	if class == 0 {
		return 0, half
	}
	return half, c.VCs
}

// classRouting returns the routing algorithm for a class.
func (c Config) classRouting(class int) RoutingAlgorithm {
	if class == 1 && c.AltRouting != nil {
		return c.AltRouting
	}
	return c.Routing
}

// Verdict is an inspector's decision about a packet at the RC stage.
type Verdict int

// Inspection verdicts. VerdictForward is deliberately the zero value: a
// packet the inspector ignores proceeds normally.
const (
	// VerdictForward routes the packet normally.
	VerdictForward Verdict = iota
	// VerdictDrop silently discards the packet — the "packet drop attack"
	// class of Section II-B.
	VerdictDrop
	// VerdictLoopback rewrites the destination to the source, bouncing the
	// packet home — the "routing loop attack" class of Section II-B.
	VerdictLoopback
)

// String implements fmt.Stringer.
func (v Verdict) String() string {
	switch v {
	case VerdictForward:
		return "forward"
	case VerdictDrop:
		return "drop"
	case VerdictLoopback:
		return "loopback"
	default:
		return fmt.Sprintf("verdict(%d)", int(v))
	}
}

// Inspector is the hardware-Trojan hook. InspectRC is invoked for every
// packet whose head flit sits in router's input buffer immediately before
// routing computation — the exact circuit position of Fig 2(b). The
// inspector may mutate the packet's payload (the paper's false-data
// attack) and/or return a non-forward verdict (the drop and routing-loop
// attack classes of Section II-B).
type Inspector interface {
	InspectRC(router NodeID, p *Packet) Verdict
}

// Handler receives packets fully ejected at a node.
type Handler func(p *Packet)

// vcState is one input virtual channel of a router. The flit buffer is a
// fixed-capacity ring (capacity BufDepth) carved from one network-wide
// slice, so steady-state traffic neither re-slices nor reallocates. The
// counters are int32 to keep the struct small (TestVCStateSize).
type vcState struct {
	rt  *router // owning router, for buffered-flit accounting and masks
	buf []*Flit // ring storage, len == BufDepth

	// owner is the packet holding this VC (wormhole allocation). It is set
	// when an upstream VC allocation reserves this channel and cleared when
	// the packet's tail flit departs the fifo.
	owner       *Packet
	reservedDst *vcState // downstream VC reserved by VC allocation
	route       Direction

	idx  int32 // index in rt.vcs, the VC's bit in the router's masks
	head int32
	n    int32
	// inflight counts flits sent toward this VC that have not yet arrived.
	inflight int32

	// vaLo and vaHi bound the downstream input VCs (indices into the
	// neighbour's vcs) that VC allocation may reserve for the routed head,
	// and dlDim/dlCrossed are the dateline state a grant commits to the
	// packet. routeVC fixes all four when it routes the head.
	vaLo, vaHi int32
	dlDim      int8
	dlCrossed  bool

	// routeValid is set once the packet's head is routed; route and the VA
	// fields above hold only while it is. The router's va and ready masks
	// summarise it together with route and reservedDst.
	routeValid bool
	dropping   bool // consume this packet's flits instead of routing them
}

// peek returns the head-of-line flit; the caller must know n > 0.
func (v *vcState) peek() *Flit { return v.buf[v.head] }

// space reports whether one more flit fits (buffer + in-flight).
func (v *vcState) space(depth int) bool { return int(v.n+v.inflight) < depth }

// router is one mesh router. Input VCs are flattened into a single slice —
// the VC for (input port d, channel v) sits at index d*VCs+v — which is
// both the cache-friendly layout for the per-cycle scans and exactly the
// candidate order of the round-robin switch allocator.
type router struct {
	id  NodeID
	vcs []vcState
	// The VC masks, one bit per entry of vcs. Each pipeline stage walks
	// only the VCs its mask selects, in ascending index order:
	//   - occ: the VC holds at least one flit;
	//   - free: the VC has no owner, so it can take a new packet;
	//   - va: the VC's head is routed to a network port and waits for a
	//     downstream VC;
	//   - ready: the VC may request the switch — routed Local, or holding
	//     a downstream VC.
	occ, free, va, ready bitset
	// saPtr is the round-robin switch-allocation pointer per output port,
	// indexing the flattened (input port, VC) candidate list.
	saPtr [numDirections]int
	// buffered counts flits currently held in this router's input VCs; the
	// router is on the active worklist exactly while it is non-zero.
	buffered int
}

// bitset is a set of small non-negative integers, one bit per member in
// ascending word order. Every mask in the network — the VC stage masks,
// switch requests and the node worklists — uses it, whatever its size.
type bitset []uint64

func newBitset(size int) bitset { return make(bitset, (size+63)/64) }

func (b bitset) set(i int)   { b[i>>6] |= 1 << (i & 63) }
func (b bitset) clear(i int) { b[i>>6] &^= 1 << (i & 63) }

// first returns the smallest member in [lo, hi), or -1 if there is none.
func (b bitset) first(lo, hi int) int {
	for i := lo; i < hi; i = (i | 63) + 1 {
		if w := b[i>>6] >> (i & 63); w != 0 {
			if i += bits.TrailingZeros64(w); i < hi {
				return i
			}
			return -1
		}
	}
	return -1
}

// inflightFlit is a flit traversing the router pipeline + link toward a
// downstream input VC. Latency is constant, so a FIFO keeps arrival order.
type inflightFlit struct {
	arriveAt uint64
	flit     *Flit
	dst      *vcState
}

// nodeNI is the per-node network interface: an unbounded injection queue
// (source queue) plus the VC currently allocated to the head-of-queue
// packet. The queue is drained via qhead instead of re-slicing so its
// backing array is reused across epochs.
type nodeNI struct {
	queue []*Flit
	qhead int
	injVC *vcState // VC currently allocated to the head-of-queue packet
}

// qlen returns the number of queued flits not yet injected.
func (ni *nodeNI) qlen() int { return len(ni.queue) - ni.qhead }

// Stats aggregates network-level counters. The per-type tallies are fixed
// arrays indexed by PacketType, so a Stats value is a plain value copy —
// no maps, no defensive deep copy.
type Stats struct {
	Injected         uint64
	Delivered        uint64
	HopSum           uint64
	DeliveredBy      [numPacketTypes]uint64
	LatencySumBy     [numPacketTypes]uint64
	TamperedPowerReq uint64 // POWER_REQ packets delivered with Tampered set
	DroppedPackets   uint64 // packets discarded by a VerdictDrop
	LoopedBack       uint64 // packets delivered to their own source
}

// AvgLatency returns the mean injection-to-delivery latency in cycles for
// packets of type t, or 0 if none were delivered.
func (s *Stats) AvgLatency(t PacketType) float64 {
	if t >= numPacketTypes {
		return 0
	}
	n := s.DeliveredBy[t]
	if n == 0 {
		return 0
	}
	return float64(s.LatencySumBy[t]) / float64(n)
}

// Network is the cycle-stepped NoC. It is not safe for concurrent use; one
// simulation owns one network.
//
// Stepping is mask-driven. The worklists are bitsets over node IDs: a
// router is on its list while flits sit in its input buffers, and a
// network interface while its source queue is non-empty. Inside a router,
// four VC masks (see router) tell each pipeline stage which VCs have work
// for it. Route computation visits the occupied VCs not yet routed; VC
// allocation visits the heads waiting for a downstream VC, and finds one
// with a single lookup in the downstream router's free mask; switch
// allocation folds the occupied ready VCs into one request bitset per
// output port, then grants each port to the first requester at or after
// its round-robin pointer. Every bitset is walked in ascending order, so a
// Step acts on the same routers and VCs, in the same order, as an
// exhaustive sweep — cycle-for-cycle identical behaviour, without the
// O(nodes × ports × VCs) cost.
//
// VC allocation also skips whole routers. A VC is reserved before any flit
// is sent to it and released only when its tail leaves, so it holds one
// packet at a time and is free exactly while it has no owner. Each network
// input port is fed by exactly one upstream router, and a waiting head's
// candidate VCs are fixed when it is routed. A router's waiting heads can
// therefore only start to succeed after a head is routed there, or after
// a VC one of its output ports feeds is released; both put the router on
// the vaWake list, and VC allocation runs only on the routers that list
// holds. The lock-step fuzz test in reference_test.go holds the network to
// an exhaustive sweep.
type Network struct {
	mesh      Mesh
	cfg       Config
	now       uint64
	nextID    uint64
	routers   []*router
	nis       []*nodeNI
	handlers  []Handler
	inspector Inspector
	stats     Stats

	// Link pipeline: a growable FIFO ring of in-flight flits.
	inflight []inflightFlit
	inflHead int
	inflLen  int

	// liveFlits counts flits anywhere in the network (source queues, input
	// buffers, link pipeline), making Busy O(1).
	liveFlits int

	// Active worklists over node IDs: routers with buffered flits and
	// network interfaces with queued flits.
	activeRouters bitset
	activeNIs     bitset
	// vaWake lists the routers where a VC allocation could succeed: a head
	// was routed there to a network port, or a VC one of its output ports
	// feeds was released. vcAllocate walks it and then empties it.
	vaWake bitset

	// req is the switch-allocation scratch: one request bitset per output
	// port, each as long as a router's occupancy bitset. switchTraversal
	// leaves it all zero.
	req bitset

	// nbr[id*numDirections+d] is the router adjacent to node id in
	// direction d, nil at a mesh edge and for Local.
	nbr []*router

	// saDir maps a flattened VC index to its input port, hoisting the
	// divide/modulo out of the switch-allocation loop.
	saDir []Direction

	// dateline flags the traffic classes whose routing traverses
	// wraparound links; VC allocation then bands the class's VC range into
	// a pre-dateline lower half and a post-dateline upper half, which
	// breaks the ring channel-dependency cycles of the torus.
	dateline [2]bool

	// flitPool recycles Flit objects between ejection and injection so
	// steady-state traffic does not churn the garbage collector.
	flitPool []*Flit

	// freeFn is the reusable congestion probe handed to adaptive routing
	// algorithms; binding the probe point through freeFrom/freeClass avoids
	// allocating a fresh closure for every routed packet.
	freeFn    func(Direction) bool
	freeFrom  NodeID
	freeClass int
}

// New constructs a network over mesh with the given configuration.
func New(mesh Mesh, cfg Config) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if mesh.Nodes() == 0 {
		return nil, errors.New("noc: empty mesh")
	}
	for class := 0; class < 2; class++ {
		alg := cfg.classRouting(class)
		if _, wrap := alg.(WrapRouting); wrap && !mesh.Wrap {
			return nil, fmt.Errorf("noc: %s routing requires a wraparound topology", alg.Name())
		}
	}
	n := &Network{
		mesh:     mesh,
		cfg:      cfg,
		routers:  make([]*router, mesh.Nodes()),
		nis:      make([]*nodeNI, mesh.Nodes()),
		handlers: make([]Handler, mesh.Nodes()),
	}
	nodes, vcsPerRouter := mesh.Nodes(), int(numDirections)*cfg.VCs
	words := len(newBitset(vcsPerRouter))
	n.req = make(bitset, int(numDirections)*words)
	n.activeRouters = newBitset(nodes)
	n.activeNIs = newBitset(nodes)
	n.vaWake = newBitset(nodes)
	// One allocation each for every router, every VC, every flit ring and
	// every mask; the per-router pieces are carved out of them.
	routers, nis := make([]router, nodes), make([]nodeNI, nodes)
	vcs := make([]vcState, nodes*vcsPerRouter)
	rings := make([]*Flit, len(vcs)*cfg.BufDepth)
	masks := make(bitset, 4*nodes*words)
	carve := func() bitset {
		b := masks[:words:words]
		masks = masks[words:]
		return b
	}
	for i := range routers {
		r := &routers[i]
		r.id = NodeID(i)
		r.vcs = vcs[i*vcsPerRouter : (i+1)*vcsPerRouter : (i+1)*vcsPerRouter]
		r.occ, r.free, r.va, r.ready = carve(), carve(), carve(), carve()
		for v := range r.vcs {
			vc := &r.vcs[v]
			vc.rt = r
			vc.idx = int32(v)
			k := i*vcsPerRouter + v
			vc.buf = rings[k*cfg.BufDepth : (k+1)*cfg.BufDepth : (k+1)*cfg.BufDepth]
			r.free.set(v)
		}
		n.routers[i] = r
		n.nis[i] = &nis[i]
	}
	n.nbr = make([]*router, mesh.Nodes()*int(numDirections))
	for i := range n.nbr {
		if nb, ok := mesh.Neighbor(NodeID(i/int(numDirections)), Direction(i%int(numDirections))); ok {
			n.nbr[i] = n.routers[nb]
		}
	}
	n.saDir = make([]Direction, vcsPerRouter)
	for i := range n.saDir {
		n.saDir[i] = Direction(i / cfg.VCs)
	}
	for class := 0; class < 2; class++ {
		_, n.dateline[class] = cfg.classRouting(class).(WrapRouting)
	}
	n.freeFn = func(d Direction) bool {
		return n.downstreamHasFreeVC(n.freeFrom, d, n.freeClass)
	}
	return n, nil
}

// Mesh returns the network topology.
func (n *Network) Mesh() Mesh { return n.mesh }

// Config returns the network configuration.
func (n *Network) Config() Config { return n.cfg }

// Now returns the network cycle counter.
func (n *Network) Now() uint64 { return n.now }

// Stats returns a snapshot of the accumulated statistics. Stats holds no
// reference types, so the value copy is already defensive.
func (n *Network) Stats() Stats { return n.stats }

// Attach registers the delivery handler for node id, replacing any previous
// handler.
func (n *Network) Attach(id NodeID, h Handler) { n.handlers[id] = h }

// SetInspector installs the hardware-Trojan inspection hook (nil clears).
func (n *Network) SetInspector(i Inspector) { n.inspector = i }

// takeFlit draws a flit from the pool, or allocates when the pool is dry.
func (n *Network) takeFlit(kind FlitKind, p *Packet, seq int) *Flit {
	if k := len(n.flitPool); k > 0 {
		f := n.flitPool[k-1]
		n.flitPool = n.flitPool[:k-1]
		f.Kind, f.Packet, f.Seq = kind, p, seq
		return f
	}
	return &Flit{Kind: kind, Packet: p, Seq: seq}
}

// freeFlit returns a consumed flit to the pool.
func (n *Network) freeFlit(f *Flit) {
	f.Packet = nil
	n.flitPool = append(n.flitPool, f)
}

// Inject queues p for transmission from p.Src. The source queue is
// unbounded, so injection never fails for a valid packet.
func (n *Network) Inject(p *Packet) error {
	if !n.mesh.Contains(n.mesh.Coord(p.Src)) || !n.mesh.Contains(n.mesh.Coord(p.Dst)) {
		return fmt.Errorf("noc: inject %v->%v outside %dx%d mesh", p.Src, p.Dst, n.mesh.Width, n.mesh.Height)
	}
	if p.Type == TypeInvalid || p.Type >= numPacketTypes {
		return fmt.Errorf("noc: inject packet with invalid type %d", p.Type)
	}
	if p.Class < 0 || p.Class > 1 {
		return fmt.Errorf("noc: inject packet with invalid class %d", p.Class)
	}
	if p.Class == 1 && n.cfg.AltRouting == nil {
		return fmt.Errorf("noc: class-1 packet without an alternate routing class")
	}
	n.nextID++
	p.ID = n.nextID
	p.InjectedAt = n.now
	p.OriginalPayload = p.Payload
	p.rx = 0
	p.dlDim, p.dlCrossed = 0, false
	ni := n.nis[p.Src]
	count := p.FlitCount()
	if count == 1 {
		ni.queue = append(ni.queue, n.takeFlit(HeadTailFlit, p, 0))
	} else {
		for i := 0; i < count; i++ {
			kind := BodyFlit
			switch i {
			case 0:
				kind = HeadFlit
			case count - 1:
				kind = TailFlit
			}
			ni.queue = append(ni.queue, n.takeFlit(kind, p, i))
		}
	}
	n.liveFlits += count
	n.activeNIs.set(int(p.Src))
	n.stats.Injected++
	return nil
}

// Busy reports whether any flit remains anywhere in the network.
func (n *Network) Busy() bool { return n.liveFlits > 0 }

// Step advances the network by one cycle.
func (n *Network) Step() {
	n.now++
	n.deliverArrivals()
	n.injectFromNIs()
	n.routeCompute()
	n.vcAllocate()
	n.switchTraversal()
}

// RunUntilIdle steps until no flits remain or maxCycles elapse. It returns
// the number of cycles stepped and whether the network drained.
func (n *Network) RunUntilIdle(maxCycles uint64) (uint64, bool) {
	var c uint64
	for ; c < maxCycles; c++ {
		if !n.Busy() {
			return c, true
		}
		n.Step()
	}
	return c, !n.Busy()
}

// vcPush appends a flit to a VC's ring buffer, marks the VC occupied and
// puts the owning router on the active worklist.
func (n *Network) vcPush(vc *vcState, f *Flit) {
	i := int(vc.head + vc.n)
	if i >= len(vc.buf) {
		i -= len(vc.buf)
	}
	vc.buf[i] = f
	vc.n++
	rt := vc.rt
	rt.occ.set(int(vc.idx))
	rt.buffered++
	n.activeRouters.set(int(rt.id))
}

// vcPop removes and returns a VC's head-of-line flit, clearing the VC's
// occupancy bit when it empties and retiring the router from the worklist
// when its last flit leaves. Pops happen only in the RC and SA stages,
// which visit one router at a time, so a retired router is never one a
// stage has yet to visit.
func (n *Network) vcPop(vc *vcState) *Flit {
	f := vc.buf[vc.head]
	vc.buf[vc.head] = nil
	vc.head++
	if int(vc.head) == len(vc.buf) {
		vc.head = 0
	}
	vc.n--
	rt := vc.rt
	if vc.n == 0 {
		rt.occ.clear(int(vc.idx))
	}
	rt.buffered--
	if rt.buffered == 0 {
		n.activeRouters.clear(int(rt.id))
	}
	return f
}

// linkPush appends a flit to the link-pipeline ring, growing it only when
// the sustained in-flight population exceeds every previous peak.
func (n *Network) linkPush(fl inflightFlit) {
	if n.inflLen == len(n.inflight) {
		size := 2 * len(n.inflight)
		if size < 64 {
			size = 64
		}
		grown := make([]inflightFlit, size)
		for i := 0; i < n.inflLen; i++ {
			j := n.inflHead + i
			if j >= len(n.inflight) {
				j -= len(n.inflight)
			}
			grown[i] = n.inflight[j]
		}
		n.inflight = grown
		n.inflHead = 0
	}
	tail := n.inflHead + n.inflLen
	if tail >= len(n.inflight) {
		tail -= len(n.inflight)
	}
	n.inflight[tail] = fl
	n.inflLen++
}

// deliverArrivals moves link-pipeline flits whose latency elapsed into their
// destination input VCs.
func (n *Network) deliverArrivals() {
	for n.inflLen > 0 {
		f := &n.inflight[n.inflHead]
		if f.arriveAt > n.now {
			break // FIFO: constant latency keeps arrivals ordered
		}
		n.vcPush(f.dst, f.flit)
		f.dst.inflight--
		f.flit, f.dst = nil, nil
		n.inflHead++
		if n.inflHead == len(n.inflight) {
			n.inflHead = 0
		}
		n.inflLen--
	}
}

// injectFromNIs moves at most one flit per active node from the source
// queue into the router's local input port, retiring drained NIs from the
// worklist.
func (n *Network) injectFromNIs() {
	for wi, word := range n.activeNIs {
		for ; word != 0; word &= word - 1 {
			id := wi<<6 | bits.TrailingZeros64(word)
			ni := n.nis[id]
			n.injectOne(NodeID(id), ni)
			if ni.qlen() == 0 {
				n.activeNIs.clear(id)
				ni.queue = ni.queue[:0]
				ni.qhead = 0
			}
		}
	}
}

// injectOne attempts one flit transfer from node id's source queue.
func (n *Network) injectOne(id NodeID, ni *nodeNI) {
	f := ni.queue[ni.qhead]
	r := n.routers[id]
	if f.IsHead() {
		// Allocate a free local input VC within the packet's class. The
		// Local port is direction 0, so its VCs sit at the start of the
		// flattened slice.
		v := r.free.first(n.cfg.classVCRange(f.Packet.Class))
		if v < 0 {
			return // all local VCs of this class busy this cycle
		}
		r.free.clear(v)
		r.vcs[v].owner = f.Packet
		ni.injVC = &r.vcs[v]
	}
	if ni.injVC == nil || !ni.injVC.space(n.cfg.BufDepth) {
		return
	}
	n.vcPush(ni.injVC, f)
	ni.qhead++
	if f.IsTail() {
		ni.injVC = nil
	}
}

// routeCompute runs the RC stage over every occupied, not yet routed input
// VC of every active router.
func (n *Network) routeCompute() {
	for wi, word := range n.activeRouters {
		for ; word != 0; word &= word - 1 {
			r := n.routers[wi<<6|bits.TrailingZeros64(word)]
			for oi, occ := range r.occ {
				for occ &^= r.va[oi] | r.ready[oi]; occ != 0; occ &= occ - 1 {
					n.routeVC(r, &r.vcs[oi<<6|bits.TrailingZeros64(occ)])
				}
			}
		}
	}
}

// routeVC is the RC stage for one occupied input VC: a head-of-line flit
// that opens a packet and has no route yet is inspected (Trojan hook) and
// routed, and a VC condemned by a VerdictDrop eats its buffered flits. A
// head routed Local becomes ready for the switch; one routed to a network
// port joins the va mask with its VA candidate range, and wakes its
// router's VC allocation.
func (n *Network) routeVC(r *router, vc *vcState) {
	if vc.dropping {
		n.consumeDropped(vc)
		return
	}
	if vc.routeValid {
		return
	}
	head := vc.peek()
	if !head.IsHead() {
		return
	}
	p := head.Packet
	// Fig 2(b): the HT sits between the input buffer and the
	// routing-computation module. Only unrouted VCs reach this point, so
	// each packet is inspected once per router.
	if n.inspector != nil {
		switch n.inspector.InspectRC(r.id, p) {
		case VerdictDrop:
			vc.dropping = true
			n.consumeDropped(vc)
			return
		case VerdictLoopback:
			// The malicious router bounces the packet back to its
			// source; the route below targets the rewritten
			// destination.
			p.Dst = p.Src
			p.LoopedBack = true
		}
	}
	p.Hops++
	n.freeFrom, n.freeClass = r.id, p.Class
	vc.route = n.cfg.classRouting(p.Class).Route(n.mesh, r.id, p.Dst, n.freeFn)
	vc.routeValid = true
	if vc.route == Local {
		r.ready.set(int(vc.idx))
		return
	}
	lo, hi := n.cfg.classVCRange(p.Class)
	if n.dateline[p.Class] {
		// Dateline banding: the class's VC range splits into a
		// pre-dateline lower half and a post-dateline upper half. A
		// packet rides the lower band until its hop crosses the current
		// dimension's wraparound link, then the upper band for the rest
		// of that dimension; switching dimensions resets it. Each
		// unidirectional ring's dependency chain is therefore acyclic,
		// which keeps the torus deadlock-free. The packet's dateline
		// state changes only at its own VA grant, so the band fixed here
		// holds until then.
		dim := dimOf(vc.route)
		crossed := p.dlCrossed && p.dlDim == dim
		wrap := n.mesh.wrapsAt(r.id, vc.route)
		half := (hi - lo) / 2
		if crossed || wrap {
			lo += half
		} else {
			hi = lo + half
		}
		vc.dlDim, vc.dlCrossed = dim, crossed || wrap
	}
	base := int(vc.route.Opposite()) * n.cfg.VCs
	vc.vaLo, vc.vaHi = int32(base+lo), int32(base+hi)
	r.va.set(int(vc.idx))
	n.vaWake.set(int(r.id))
}

// consumeDropped discards buffered flits of a packet condemned by a
// VerdictDrop, releasing the VC once the tail has been eaten. Upstream
// flits still in the link pipeline arrive later and are eaten on
// subsequent cycles.
func (n *Network) consumeDropped(vc *vcState) {
	for vc.n > 0 {
		f := n.vcPop(vc)
		tail := f.IsTail()
		n.freeFlit(f)
		n.liveFlits--
		if tail {
			n.stats.DroppedPackets++
			n.release(vc)
			return
		}
	}
}

// downstreamHasFreeVC reports whether the neighbour of id in direction dir
// has any completely free input VC in the packet's class — the congestion
// signal used by the adaptive routing algorithm.
func (n *Network) downstreamHasFreeVC(id NodeID, dir Direction, class int) bool {
	nb := n.nbr[int(id)*int(numDirections)+int(dir)]
	if nb == nil {
		return false
	}
	base := int(dir.Opposite()) * n.cfg.VCs
	lo, hi := n.cfg.classVCRange(class)
	return nb.free.first(base+lo, base+hi) >= 0
}

// release frees a VC whose packet's tail has left it, and wakes VC
// allocation at the upstream router feeding the VC's input port: its
// waiting heads may now find a free VC.
func (n *Network) release(vc *vcState) {
	vc.owner, vc.reservedDst = nil, nil
	vc.routeValid, vc.dropping = false, false
	rt := vc.rt
	rt.free.set(int(vc.idx))
	rt.ready.clear(int(vc.idx))
	if up := n.nbr[int(rt.id)*int(numDirections)+int(n.saDir[vc.idx])]; up != nil {
		n.vaWake.set(int(up.id))
	}
}

// vcAllocate runs the VA stage over every waiting head of every router on
// the vaWake list, then empties the list. VA frees no VC, so a router it
// skips would have failed every waiting head again.
func (n *Network) vcAllocate() {
	for wi, word := range n.vaWake {
		for ; word != 0; word &= word - 1 {
			r := n.routers[wi<<6|bits.TrailingZeros64(word)]
			for vi, va := range r.va {
				for ; va != 0; va &= va - 1 {
					n.allocateVC(r, &r.vcs[vi<<6|bits.TrailingZeros64(va)])
				}
			}
		}
		n.vaWake[wi] = 0
	}
}

// allocateVC is the VA stage for one waiting head: it reserves the first
// free VC of its candidate range in the downstream router's input port.
func (n *Network) allocateVC(r *router, vc *vcState) {
	nb := n.nbr[int(r.id)*int(numDirections)+int(vc.route)]
	if nb == nil {
		// Routing algorithms never route off-mesh; defensive.
		return
	}
	out := nb.free.first(int(vc.vaLo), int(vc.vaHi))
	if out < 0 {
		return
	}
	p := vc.peek().Packet
	dvc := &nb.vcs[out]
	dvc.owner = p
	nb.free.clear(out)
	vc.reservedDst = dvc
	r.va.clear(int(vc.idx))
	r.ready.set(int(vc.idx))
	if n.dateline[p.Class] {
		p.dlDim, p.dlCrossed = vc.dlDim, vc.dlCrossed
	}
}

// switchTraversal runs SA+ST: per output port of each active router, one
// flit crosses the switch, respecting one-flit-per-input-port bandwidth,
// then either ejects locally or enters the link pipeline. One pass over
// the occupied ready VCs builds the request bitset of every output port.
func (n *Network) switchTraversal() {
	for wi, word := range n.activeRouters {
		for ; word != 0; word &= word - 1 {
			r := n.routers[wi<<6|bits.TrailingZeros64(word)]
			w := len(r.occ)
			var outs uint // bit o set when output port o has a requester
			for oi, occ := range r.occ {
				for occ &= r.ready[oi]; occ != 0; occ &= occ - 1 {
					b := bits.TrailingZeros64(occ)
					route := r.vcs[oi<<6|b].route
					n.req[int(route)*w+oi] |= 1 << b
					outs |= 1 << route
				}
			}
			var usedInput [numDirections]bool
			for ; outs != 0; outs &= outs - 1 {
				out := Direction(bits.TrailingZeros(outs))
				req := n.req[int(out)*w : int(out+1)*w]
				n.arbitrateOutput(r, out, req, &usedInput)
				clear(req)
			}
		}
	}
}

// arbitrateOutput grants output port out to the first requester in req, in
// round-robin order from the port's pointer, whose input port has not sent
// this cycle and, for a network port, whose reserved downstream VC has
// room.
func (n *Network) arbitrateOutput(r *router, out Direction, req bitset, usedInput *[numDirections]bool) {
	p := r.saPtr[out]
	pw, below := p>>6, uint64(1)<<(p&63)-1
	// Visit the pointer's word from the pointer up, the other words in
	// order with wrap-around, then the pointer's word below the pointer.
	for k := 0; k <= len(req); k++ {
		wi := pw + k
		if wi >= len(req) {
			wi -= len(req)
		}
		word := req[wi]
		switch k {
		case 0:
			word &^= below
		case len(req):
			word &= below
		}
		for ; word != 0; word &= word - 1 {
			if n.grant(r, out, wi<<6|bits.TrailingZeros64(word), usedInput) {
				return
			}
		}
	}
}

// grant moves the head-of-line flit of requester idx through output port
// out and advances the port's round-robin pointer past it, unless the
// requester's input port already sent this cycle or its reserved
// downstream VC is full. It reports whether the flit moved.
func (n *Network) grant(r *router, out Direction, idx int, usedInput *[numDirections]bool) bool {
	d := n.saDir[idx]
	vc := &r.vcs[idx]
	if usedInput[d] || (out != Local && !vc.reservedDst.space(n.cfg.BufDepth)) {
		return false
	}
	f := n.vcPop(vc)
	usedInput[d] = true
	idx++
	if idx == len(r.vcs) {
		idx = 0
	}
	r.saPtr[out] = idx

	// Read the flit kind before eject: ejection frees the flit to the
	// pool, and a delivery handler may synchronously Inject a new packet
	// that recycles (and rewrites) it.
	tail := f.IsTail()
	if out == Local {
		n.eject(r.id, f)
	} else {
		vc.reservedDst.inflight++
		n.linkPush(inflightFlit{
			arriveAt: n.now + uint64(n.cfg.RouterCycles+n.cfg.LinkCycles),
			flit:     f,
			dst:      vc.reservedDst,
		})
	}
	if tail {
		n.release(vc)
	}
	return true
}

// dimOf maps a direction to its mesh dimension for dateline tracking:
// 1 for the X axis (east/west), 2 for Y (north/south), 0 for Local.
func dimOf(d Direction) int8 {
	switch d {
	case East, West:
		return 1
	case North, South:
		return 2
	default:
		return 0
	}
}

// eject consumes a flit at its destination; delivering the tail flit
// completes the packet and fires the node handler.
func (n *Network) eject(id NodeID, f *Flit) {
	p := f.Packet
	p.rx++
	tail := f.IsTail()
	n.freeFlit(f)
	n.liveFlits--
	if !tail {
		return
	}
	if p.rx != p.FlitCount() {
		// Wormhole routing delivers flits of one packet in order on one
		// path; a mismatch indicates a simulator bug.
		panic(fmt.Sprintf("noc: packet %d ejected %d of %d flits", p.ID, p.rx, p.FlitCount()))
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
