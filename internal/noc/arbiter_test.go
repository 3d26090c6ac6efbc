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
				vc, dst := &r.vcs[idx], &down.vcs[int(West)*cfg.VCs+k]
				for seq := 0; seq < DataPacketFlits; seq++ {
					kind := BodyFlit
					switch seq {
					case 0:
						kind = HeadFlit
					case DataPacketFlits - 1:
						kind = TailFlit
					}
					n.vcPush(vc, n.takeFlit(kind, p, seq))
				}
				vc.route, vc.routeValid = East, true
				vc.outVC, vc.outVCValid, vc.reservedDst = k, true, dst
				dst.owner = p
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
