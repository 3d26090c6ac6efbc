package noc

import "testing"

// TestSwitchAllocationAlternatesAcrossWrap pins round-robin fairness of
// the switch allocator where its pointer wraps: two always-ready
// requesters for the same output port, one at a high VC index and one at
// a low one, must take turns flit by flit. The cases put the pair in one
// mask word and on both sides of a word boundary.
func TestSwitchAllocationAlternatesAcrossWrap(t *testing.T) {
	for _, tc := range []struct {
		name   string
		vcs    int
		hi, lo int // requester VC indices at router 1: West and Local ports
		ptr    int // initial East pointer, between hi and the wrap point
	}{
		{"one word", 4, 4*int(West) + 0, 0, 4*int(West) + 1},
		{"last index", 16, 16*int(West) + 15, 0, 0},
		{"two words", 16, 16*int(West) + 0, 3, 16*int(West) + 9},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.VCs = tc.vcs
			cfg.BufDepth = DataPacketFlits
			n, err := New(Mesh{Width: 3, Height: 1}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			r, down := n.routers[1], n.routers[2]
			for k, idx := range []int{tc.hi, tc.lo} {
				p := &Packet{Src: 1, Dst: 2, Type: TypeMemReadReply}
				vc := &r.vcs[idx]
				for seq := 0; seq < DataPacketFlits; seq++ {
					pushFlit(n, vc, p, seq)
				}
				holdVC(vc, East, &down.vcs[int(West)*cfg.VCs+k])
			}
			r.saPtr[East] = tc.ptr
			var order []int
			for cycle := 0; cycle < 2*DataPacketFlits; cycle++ {
				hiBefore, loBefore := r.vcs[tc.hi].n, r.vcs[tc.lo].n
				n.switchTraversal()
				switch {
				case r.vcs[tc.hi].n < hiBefore && r.vcs[tc.lo].n == loBefore:
					order = append(order, tc.hi)
				case r.vcs[tc.lo].n < loBefore && r.vcs[tc.hi].n == hiBefore:
					order = append(order, tc.lo)
				default:
					t.Fatalf("cycle %d: want exactly one of VCs %d and %d granted", cycle, tc.hi, tc.lo)
				}
			}
			// The pointer sits past hi, so the wrapped requester lo goes
			// first; the two then alternate until both packets are sent.
			for i, got := range order {
				want := tc.lo
				if i%2 == 1 {
					want = tc.hi
				}
				if got != want {
					t.Fatalf("grant order %v: grant %d went to VC %d, want %d", order, i, got, want)
				}
			}
		})
	}
}

// pushFlit buffers flit seq of p in vc, as if it had arrived over a link.
func pushFlit(n *Network, vc *vcState, p *Packet, seq int) {
	kind := BodyFlit
	switch {
	case p.FlitCount() == 1:
		kind = HeadTailFlit
	case seq == 0:
		kind = HeadFlit
	case seq == p.FlitCount()-1:
		kind = TailFlit
	}
	n.vcPush(vc, n.takeFlit(kind, p, seq))
	n.liveFlits++
}

// holdVC leaves vc as a VC allocation grant does: routed to out, holding
// the downstream VC dst on behalf of its head-of-line packet, and ready
// for the switch.
func holdVC(vc *vcState, out Direction, dst *vcState) {
	vc.route, vc.routeValid, vc.reservedDst = out, true, dst
	vc.rt.ready.set(int(vc.idx))
	dst.owner = vc.peek().Packet
	dst.rt.free.clear(int(dst.idx))
}

// dropTypeAt condemns every packet of type typ crossing router at.
type dropTypeAt struct {
	at  NodeID
	typ PacketType
}

func (d dropTypeAt) InspectRC(r NodeID, p *Packet) Verdict {
	if r == d.at && p.Type == d.typ {
		return VerdictDrop
	}
	return VerdictForward
}

// TestVAWakeOnRelease pins the VA wake list. On a 3×1 mesh every West
// input VC of router 2 is owned by a data packet whose head alone has
// arrived, so router 1's head bound East waits. VC allocation must skip
// router 1 while it is off the wake list, even with a free downstream VC,
// and must grant the head a VC in the first VA after a downstream tail
// leaves: the cycle after it is ejected, the same cycle when a VerdictDrop
// eats it at route computation.
func TestVAWakeOnRelease(t *testing.T) {
	for _, drop := range []bool{false, true} {
		name := "eject"
		if drop {
			name = "drop"
		}
		t.Run(name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.VCs = 2
			n, err := New(Mesh{Width: 3, Height: 1}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if drop {
				n.SetInspector(dropTypeAt{at: 2, typ: TypeMemReadReply})
			}
			up, down := n.routers[1], n.routers[2]
			held := make([]*Packet, cfg.VCs)
			for k := range held {
				held[k] = &Packet{Src: 1, Dst: 2, Type: TypeMemReadReply}
				dvc := &down.vcs[int(West)*cfg.VCs+k]
				dvc.owner = held[k]
				down.free.clear(int(dvc.idx))
				pushFlit(n, dvc, held[k], 0)
			}
			waiting := &Packet{Src: 1, Dst: 2, Type: TypePowerReq}
			if err := n.Inject(waiting); err != nil {
				t.Fatal(err)
			}
			wait := &up.vcs[0] // the first Local input VC
			for i := 0; i < 5; i++ {
				n.Step()
			}
			if !wait.routeValid || wait.route != East || wait.reservedDst != nil {
				t.Fatalf("waiting head: routed %v to %v, holds %p; want routed East, waiting", wait.routeValid, wait.route, wait.reservedDst)
			}
			if n.vaWake[0]&(1<<up.id) != 0 {
				t.Fatal("router 1 is still on the VA wake list with nothing released")
			}

			// Free a downstream VC without a release: VA must not visit
			// router 1.
			dvc := &down.vcs[int(West)*cfg.VCs+1]
			dvc.owner = nil
			down.free.set(int(dvc.idx))
			n.vcAllocate()
			if wait.reservedDst != nil {
				t.Fatal("VC allocation ran on a router absent from the wake list")
			}
			dvc.owner = held[1]
			down.free.clear(int(dvc.idx))

			// Send the rest of held[0]; its tail's departure must wake
			// router 1. The granted head is a single flit and crosses the
			// switch at once, so the grant shows as the downstream VC's
			// new owner.
			dvc = &down.vcs[int(West)*cfg.VCs]
			for seq := 1; seq < DataPacketFlits; seq++ {
				pushFlit(n, dvc, held[0], seq)
			}
			released := uint64(0)
			for cycle := 0; cycle < 20 && dvc.owner != waiting; cycle++ {
				before := n.Stats()
				n.Step()
				s := n.Stats()
				if s.Delivered > before.Delivered || s.DroppedPackets > before.DroppedPackets {
					released = n.Now()
				}
			}
			if released == 0 || dvc.owner != waiting {
				t.Fatalf("tail left at cycle %d, head granted %v; want both", released, dvc.owner == waiting)
			}
			want := released + 1
			if drop {
				want = released
			}
			if n.Now() != want {
				t.Errorf("tail left at cycle %d; head granted its VC at cycle %d, want %d", released, n.Now(), want)
			}
		})
	}
}
