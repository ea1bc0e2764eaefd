package dcache

import (
	"testing"

	"dice/internal/dram"
	"dice/internal/fault"
)

func newFaultCache(t *testing.T, policy Policy, ber float64, fp fault.Policy) *Cache {
	t.Helper()
	m, err := fault.New(fault.Config{BER: ber, Seed: 7, Policy: fp})
	if err != nil {
		t.Fatal(err)
	}
	// Zero lines compress to ZCA (0B + 4B tag), so compressed sets hold
	// many resident lines and reads actually hit.
	return New(Config{
		Sets:   64,
		Policy: policy,
		Mem:    dram.New(dram.HBMConfig()),
		Sizes:  newTestData(),
		Faults: m,
	})
}

// hammer installs a working set and re-reads it so would-be hits meet
// injected faults.
func hammer(c *Cache, lines uint64, rounds int) {
	now := uint64(0)
	for l := uint64(0); l < lines; l++ {
		now = c.Install(now, l, l%3 == 0).Done
	}
	for r := 0; r < rounds; r++ {
		for l := uint64(0); l < lines; l++ {
			res := c.Read(now, l)
			now = res.Done
			if !res.Hit {
				now = c.Install(now, l, false).Done
			}
		}
	}
}

func TestFaultDetectedFlushesAndQuarantines(t *testing.T) {
	c := newFaultCache(t, PolicyTSI, 0.01, fault.PolicyECCQuarantine)
	hammer(c, 512, 20)

	st := c.Stats()
	if st.FaultDetectedFrames == 0 {
		t.Fatal("no detected-uncorrectable frames at BER 1e-2")
	}
	if st.FaultRefetches == 0 {
		t.Fatal("no would-be hits converted to refetches")
	}
	if st.FaultFlushedLines == 0 || st.FaultDirtyLoss == 0 {
		t.Fatalf("flush accounting empty: flushed=%d dirtyLoss=%d",
			st.FaultFlushedLines, st.FaultDirtyLoss)
	}
	if st.FaultQuarantined == 0 {
		t.Fatal("no set reached the quarantine threshold")
	}
	if got := c.QuarantineCount(); uint64(got) != st.FaultQuarantined {
		t.Fatalf("QuarantineCount=%d, stat says %d", got, st.FaultQuarantined)
	}
	// Quarantined frames must have degraded to single-line storage.
	for setIdx := range c.quarantined {
		if n := c.sets[setIdx].lineCount(); n > 1 {
			t.Fatalf("quarantined set %d holds %d lines", setIdx, n)
		}
	}
}

func TestFaultECCPolicyNeverQuarantines(t *testing.T) {
	c := newFaultCache(t, PolicyTSI, 0.01, fault.PolicyECC)
	hammer(c, 512, 20)
	if st := c.Stats(); st.FaultQuarantined != 0 || c.QuarantineCount() != 0 {
		t.Fatalf("PolicyECC quarantined sets: stat=%d count=%d",
			st.FaultQuarantined, c.QuarantineCount())
	}
}

func TestFaultChecksumCatchesSilentOnCompressed(t *testing.T) {
	// PolicyNone makes every faulty frame Silent; compressed lines carry
	// a checksum, so silent corruption is caught and refetched.
	c := newFaultCache(t, PolicyTSI, 0.002, fault.PolicyNone)
	hammer(c, 512, 20)
	st := c.Stats()
	if st.FaultChecksumCaught == 0 {
		t.Fatal("no silent corruption caught by the line checksum")
	}
	if st.FaultSilentHits != 0 {
		t.Fatalf("%d silent hits served on a compressed policy", st.FaultSilentHits)
	}
	if st.FaultDetectedFrames != 0 {
		t.Fatalf("PolicyNone detected %d frames", st.FaultDetectedFrames)
	}
}

func TestFaultSilentHitsOnUncompressed(t *testing.T) {
	// Uncompressed lines have no checksum: silent corruption reaches the
	// core as a served hit.
	// One line per set so the direct-mapped baseline hits on re-reads.
	c := newFaultCache(t, PolicyUncompressed, 0.002, fault.PolicyNone)
	hammer(c, 64, 100)
	st := c.Stats()
	if st.FaultSilentHits == 0 {
		t.Fatal("no silent hits on the uncompressed baseline")
	}
	if st.FaultChecksumCaught != 0 {
		t.Fatalf("checksum caught %d faults without a checksum", st.FaultChecksumCaught)
	}
}

func TestFaultInjectsOnDemandReadsOnly(t *testing.T) {
	c := newFaultCache(t, PolicyDICE, 0.01, fault.PolicyECCQuarantine)
	m := c.Config().Faults

	now := uint64(0)
	for l := uint64(0); l < 64; l++ {
		now = c.Install(now, l, false).Done
		now = c.Writeback(now, l).Done
	}
	if got := m.Stats().Frames; got != 0 {
		t.Fatalf("installs/writebacks drew %d frames from the fault model", got)
	}
	c.Read(now, 0)
	if m.Stats().Frames == 0 {
		t.Fatal("demand read drew no frame from the fault model")
	}
}

func TestFaultNilModelKeepsCountersZero(t *testing.T) {
	c := newCache(PolicyDICE, 64, newTestData())
	hammer(c, 512, 5)
	st := c.Stats()
	if st.FaultDetectedFrames|st.FaultRefetches|st.FaultFlushedLines|
		st.FaultDirtyLoss|st.FaultChecksumCaught|st.FaultSilentHits|st.FaultQuarantined != 0 {
		t.Fatalf("fault counters moved without a fault model: %+v", st)
	}
}

// TestFlushSetKeepsSlots pins flushSet's storage handling: a flushed
// set keeps its slots for the next install.
func TestFlushSetKeepsSlots(t *testing.T) {
	c := New(Config{
		Sets:   64,
		Policy: PolicyTSI,
		Mem:    dram.New(dram.HBMConfig()),
		Sizes:  newTestData(),
	})
	// Zero lines 0 and 64 share TSI set 0.
	c.Install(0, 0, false)
	c.Install(0, 64, true)
	s := &c.sets[0]
	slots := s.entries[:cap(s.entries)]
	if s.lineCount() != 2 {
		t.Fatalf("set 0 holds %d lines, want 2", s.lineCount())
	}
	if lines, dirty := c.flushSet(0); lines != 2 || dirty != 1 {
		t.Fatalf("flushSet = (%d lines, %d dirty), want (2, 1)", lines, dirty)
	}
	if s.lineCount() != 0 || cap(s.entries) != len(slots) || &s.entries[:1][0] != &slots[0] {
		t.Fatalf("flushed set: len %d cap %d, want len 0 on its original %d slots",
			s.lineCount(), cap(s.entries), len(slots))
	}
	if c.OccupiedLines() != 0 {
		t.Fatalf("OccupiedLines = %d after flushing the only set in use", c.OccupiedLines())
	}
}
