package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"repro/internal/attack"
	"repro/internal/noc"
)

// streamsScenario is a small attacked mix on a 16-core chip.
func streamsScenario(t *testing.T, s *System) Scenario {
	t.Helper()
	mesh := s.Mesh()
	ring, err := attack.RingCluster(mesh, mesh.Coord(s.ManagerNode()), 1, 1, s.ManagerNode())
	if err != nil {
		t.Fatal(err)
	}
	sc := fastScenario(t, ring)
	sc.Apps[0].Threads, sc.Apps[1].Threads = 6, 6
	return sc
}

func streamsConfig(memTraffic bool) Config {
	cfg := fastConfig()
	cfg.Cores = 16
	cfg.MemTraffic = memTraffic
	cfg.EpochCycles = 600
	cfg.Epochs = 4
	cfg.WarmupEpochs = 1
	return cfg
}

// TestSetupBuildsStreamsOnlyWithMemTraffic pins that address streams,
// which only the memory-traffic generator reads, are built exactly when
// memory traffic is on: one per application core.
func TestSetupBuildsStreamsOnlyWithMemTraffic(t *testing.T) {
	for _, memTraffic := range []bool{false, true} {
		s, err := NewSystem(streamsConfig(memTraffic))
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.setup(streamsScenario(t, s))
		if err != nil {
			t.Fatal(err)
		}
		streams := 0
		for _, cs := range r.cores {
			if cs.stream != nil {
				streams++
				if cs.app < 0 {
					t.Errorf("MemTraffic=%v: idle core %d has an address stream", memTraffic, cs.node)
				}
			}
		}
		want := 0
		if memTraffic {
			want = 12
		}
		if streams != want {
			t.Errorf("MemTraffic=%v: setup built %d address streams, want %d", memTraffic, streams, want)
		}
	}
}

// memTrafficReportSHA256 is the digest of the JSON-encoded attacked report
// of TestMemTrafficReportUnchanged, recorded before address-stream
// construction became conditional on MemTraffic.
const memTrafficReportSHA256 = "aa39cd68ba3eccc1ee943c881439fa28e4971d023bac90a502d21fc6fd7765fa"

// TestMemTrafficReportUnchanged pins a memory-traffic run's report byte
// for byte, so changes to how runs are set up cannot shift the address
// sequences the cores draw.
func TestMemTrafficReportUnchanged(t *testing.T) {
	s, err := NewSystem(streamsConfig(true))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(streamsScenario(t, s))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Net.DeliveredBy[noc.TypeMemReadReq] == 0 {
		t.Fatal("run carried no memory traffic")
	}
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	if got := hex.EncodeToString(sum[:]); got != memTrafficReportSHA256 {
		t.Errorf("memory-traffic report digest = %s, want %s", got, memTrafficReportSHA256)
	}
}
