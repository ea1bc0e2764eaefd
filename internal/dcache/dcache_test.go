package dcache

import (
	"encoding/binary"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"dice/internal/compress"
	"dice/internal/dram"
)

// testData is line data with programmable per-line compressibility,
// sized as a Sizer by the compressor.
type testData struct {
	// sizes maps line -> one of: "zero", "small" (~36B b4d2), "random".
	kind map[uint64]string
	rng  *rand.Rand
}

func newTestData() *testData {
	return &testData{kind: make(map[uint64]string), rng: rand.New(rand.NewPCG(42, 43))}
}

func (d *testData) set(line uint64, kind string) { d.kind[line] = kind }

func (d *testData) setRange(lo, hi uint64, kind string) {
	for l := lo; l < hi; l++ {
		d.kind[l] = kind
	}
}

func (d *testData) FillLine(line uint64, buf []byte) bool {
	clear(buf)
	switch d.kind[line] {
	case "zero", "":
		// all zeros
	case "small":
		// 4-byte values near a big base: BDI b4d2 -> 36B.
		base := uint32(0x40000000) + uint32(line&0xFF)<<12
		for i := 0; i < 16; i++ {
			binary.LittleEndian.PutUint32(buf[i*4:], base+uint32(i*97%4000))
		}
	case "random":
		rng := rand.New(rand.NewPCG(line, 0xDEAD))
		for i := range buf {
			buf[i] = byte(rng.Uint32())
		}
	default:
		panic("unknown kind")
	}
	return true
}

func (d *testData) Size(alg compress.AlgID, line uint64) int {
	return fillSize(d.FillLine, alg, line)
}

func (d *testData) PairSize(alg compress.AlgID, evenLine uint64) int {
	return fillPairSize(d.FillLine, alg, evenLine)
}

// fillSize sizes the bytes fill writes for line under alg, as the
// workloads' size tables do over an instance's Fill: 64 when fill
// reports the line unknown.
func fillSize(fill func(line uint64, buf []byte) bool, alg compress.AlgID, line uint64) int {
	var buf [compress.LineSize]byte
	if !fill(line, buf[:]) {
		return compress.LineSize
	}
	return compress.SizeWith(alg, buf[:])
}

// fillPairSize is fillSize for the pair evenLine, evenLine|1: 128 when
// either line is unknown.
func fillPairSize(fill func(line uint64, buf []byte) bool, alg compress.AlgID, evenLine uint64) int {
	var a, b [compress.LineSize]byte
	if !fill(evenLine, a[:]) || !fill(evenLine|1, b[:]) {
		return 2 * compress.LineSize
	}
	return compress.PairSizeWith(alg, a[:], b[:])
}

func newCache(policy Policy, sets int, data Sizer) *Cache {
	return New(Config{
		Sets:   sets,
		Policy: policy,
		Mem:    dram.New(dram.HBMConfig()),
		Sizes:  data,
	})
}

func TestConfigValidation(t *testing.T) {
	mem := dram.New(dram.HBMConfig())
	bad := []Config{
		{},
		{Sets: 3, Mem: mem},                      // odd
		{Sets: 16},                               // nil mem
		{Sets: 16, Mem: mem, Policy: PolicyDICE}, // nil data for compressed
		{Sets: 16, Mem: mem, Threshold: 100},     // threshold too big
		{Sets: 16, Mem: mem, Alg: compress.AlgZCA}, // not a sizing compressor
	}
	for i, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("bad config %d accepted", i)
				}
			}()
			New(cfg)
		}()
	}
	// Baseline needs no data source.
	New(Config{Sets: 16, Mem: mem, Policy: PolicyUncompressed})
}

func TestBaselineMissInstallHit(t *testing.T) {
	c := newCache(PolicyUncompressed, 64, nil)
	r := c.Read(0, 100)
	if r.Hit {
		t.Fatal("cold read must miss")
	}
	c.Install(r.Done, 100, false)
	r2 := c.Read(r.Done+1000, 100)
	if !r2.Hit {
		t.Fatal("installed line must hit")
	}
	if r2.HasExtra {
		t.Fatal("baseline never returns extras")
	}
	s := c.Stats()
	if s.Reads != 2 || s.ReadHits != 1 || s.ReadMisses != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestBaselineDirectMappedConflict(t *testing.T) {
	c := newCache(PolicyUncompressed, 64, nil)
	c.Install(0, 5, false)
	res := c.Install(0, 5+64, true) // same TSI set
	if len(res.Victims) != 1 || res.Victims[0].Line != 5 {
		t.Fatalf("victims = %+v, want line 5 evicted", res.Victims)
	}
	if c.Contains(5) {
		t.Fatal("conflicting line must be gone")
	}
}

func TestTSICompressionCapacity(t *testing.T) {
	data := newTestData()
	// Lines 0 and 64 map to the same TSI set (sets=64); both compress to
	// 36B: 8B tags + 72B data > 72 -> only if <= 32B each would two fit.
	// Zero lines (0B) certainly fit many.
	data.set(5, "zero")
	data.set(5+64, "zero")
	data.set(5+128, "zero")
	c := newCache(PolicyTSI, 64, data)
	c.Install(0, 5, false)
	c.Install(0, 5+64, false)
	c.Install(0, 5+128, false)
	for _, l := range []uint64{5, 5 + 64, 5 + 128} {
		if !c.Contains(l) {
			t.Fatalf("line %d should be co-resident (zero lines)", l)
		}
	}
	if c.Stats().Evictions != 0 {
		t.Fatal("no evictions expected for three zero lines")
	}
}

func TestTSIIncompressibleActsDirectMapped(t *testing.T) {
	data := newTestData()
	data.set(5, "random")
	data.set(5+64, "random")
	c := newCache(PolicyTSI, 64, data)
	c.Install(0, 5, false)
	c.Install(0, 5+64, false)
	if c.Contains(5) {
		t.Fatal("incompressible conflict should evict the older line")
	}
	if !c.Contains(5 + 64) {
		t.Fatal("newer line must be resident")
	}
}

func TestTSINoExtras(t *testing.T) {
	data := newTestData()
	data.setRange(0, 256, "zero")
	c := newCache(PolicyTSI, 64, data)
	c.Install(0, 64, false)
	c.Install(0, 128, false)
	r := c.Read(10000, 64)
	if !r.Hit || r.HasExtra {
		t.Fatalf("TSI must not deliver spatial extras, got %+v", r)
	}
}

func TestBAIPairCoResidencyAndExtras(t *testing.T) {
	data := newTestData()
	data.setRange(0, 256, "small") // 36B singles, <=68B pairs
	c := newCache(PolicyBAI, 64, data)
	c.Install(0, 10, false)
	c.Install(0, 11, false) // buddy
	if !c.Contains(10) || !c.Contains(11) {
		t.Fatal("compressible buddies must co-reside under BAI")
	}
	r := c.Read(10000, 10)
	if !r.Hit {
		t.Fatal("hit expected")
	}
	if !r.HasExtra || r.Extra != 11 {
		t.Fatalf("extra = (%d, %t), want line 11", r.Extra, r.HasExtra)
	}
}

func TestBAIIncompressibleThrashes(t *testing.T) {
	data := newTestData()
	data.setRange(0, 256, "random")
	c := newCache(PolicyBAI, 64, data)
	c.Install(0, 10, false)
	c.Install(0, 11, false)
	if c.Contains(10) {
		t.Fatal("incompressible buddies must conflict under BAI")
	}
	if !c.Contains(11) {
		t.Fatal("newest line resident")
	}
}

func TestDICEInsertionThreshold(t *testing.T) {
	data := newTestData()
	sets := 64
	// Pick a non-invariant line.
	var line uint64
	for line = 0; Invariant(line, sets); line++ {
	}
	data.set(line, "small") // 36 <= 36 -> BAI
	c := newCache(PolicyDICE, sets, data)
	res := c.Install(0, line, false)
	if !res.UsedBAI || res.Invariant {
		t.Fatalf("36B line should install BAI, got %+v", res)
	}
	if got := Index(BAI, line, sets); c.sets[got].find(line) < 0 {
		t.Fatal("line not at BAI location")
	}

	var line2 uint64
	for line2 = line + 1; Invariant(line2, sets); line2++ {
	}
	data.set(line2, "random") // 64 > 36 -> TSI
	res2 := c.Install(0, line2, false)
	if res2.UsedBAI {
		t.Fatalf("incompressible line should install TSI, got %+v", res2)
	}
	st := c.Stats()
	if st.InstallBAI != 1 || st.InstallTSI != 1 {
		t.Fatalf("install stats = %+v", st)
	}
}

func TestDICEInvariantLinesNeedNoDecision(t *testing.T) {
	data := newTestData()
	sets := 64
	var line uint64
	for line = 0; !Invariant(line, sets); line++ {
	}
	c := newCache(PolicyDICE, sets, data)
	res := c.Install(0, line, false)
	if !res.Invariant {
		t.Fatal("invariant line should be flagged")
	}
	if c.Stats().InstallInvariant != 1 {
		t.Fatalf("stats = %+v", c.Stats())
	}
}

func TestDICEMispredictCostsSecondProbe(t *testing.T) {
	data := newTestData()
	sets := 64
	var line uint64
	for line = 0; Invariant(line, sets); line++ {
	}
	data.set(line, "small")
	c := newCache(PolicyDICE, sets, data)
	c.Install(0, line, false) // BAI install, trains CIP -> BAI

	// Force the predictor to TSI for this page, then read: the line is at
	// BAI, so the first (TSI) probe misses and the second finds it.
	c.cip.Train(line, false)
	r := c.Read(100000, line)
	if !r.Hit || c.Stats().SecondProbes == 0 {
		t.Fatalf("expected hit via second probe, got %+v stats %+v", r, c.Stats())
	}
	if c.Stats().HitInAlternate != 1 {
		t.Fatalf("HitInAlternate = %d", c.Stats().HitInAlternate)
	}
	// CIP must now have learned BAI for the page.
	if !c.cip.Predict(line) {
		t.Fatal("CIP should have been corrected to BAI")
	}
}

func TestDICECorrectPredictionSingleProbe(t *testing.T) {
	data := newTestData()
	sets := 64
	var line uint64
	for line = 0; Invariant(line, sets); line++ {
	}
	data.set(line, "small")
	c := newCache(PolicyDICE, sets, data)
	c.Install(0, line, false)
	before := c.Stats().Probes
	r := c.Read(100000, line)
	if !r.Hit {
		t.Fatal("hit expected")
	}
	if c.Stats().Probes != before+1 {
		t.Fatalf("correct prediction should cost one probe, got %d", c.Stats().Probes-before)
	}
}

func TestDICEMissSingleProbeOnAlloy(t *testing.T) {
	data := newTestData()
	c := newCache(PolicyDICE, 64, data)
	var line uint64
	for line = 0; Invariant(line, 64); line++ {
	}
	r := c.Read(0, line)
	if r.Hit {
		t.Fatal("cold miss expected")
	}
	if c.Stats().Probes != 1 {
		t.Fatalf("Alloy org resolves a miss in one probe, got %d", c.Stats().Probes)
	}
}

// TestFirstProbeLocMatchesRead: FirstProbeLoc names the channel the
// next Read's first probe occupies, under every policy and either CIP
// prediction, and asking it changes neither statistics nor predictor.
// Cold misses on Alloy probe one set only, so the one channel whose
// bus-free time moves is the first probe's.
func TestFirstProbeLocMatchesRead(t *testing.T) {
	const sets = 4096
	rng := rand.New(rand.NewPCG(5, 9))
	for _, policy := range []Policy{PolicyUncompressed, PolicyTSI, PolicyBAI, PolicyDICE} {
		c := newCache(policy, sets, newTestData())
		mem := c.cfg.Mem
		now := uint64(0)
		differ := 0
		for i := 0; i < 2000; i++ {
			line := rng.Uint64N(1 << 24)
			if policy == PolicyDICE {
				c.cip.Train(line, rng.UintN(2) == 0)
			}
			stats, pred := c.Stats(), c.cip.Predictions()
			loc := c.FirstProbeLoc(line)
			if c.Stats() != stats || c.cip.Predictions() != pred {
				t.Fatalf("%v: FirstProbeLoc changed statistics or the predictor", policy)
			}
			if loc.Channel != mem.Decode(line<<6).Channel {
				differ++
			}
			var free [4]uint64
			for ch := range free {
				free[ch] = mem.NextBusFree(dram.Loc{Channel: ch})
			}
			now += 10_000
			if r := c.Read(now, line); r.Hit {
				t.Fatalf("%v: cold read of %#x hit", policy, line)
			}
			for ch := range free {
				moved := mem.NextBusFree(dram.Loc{Channel: ch}) != free[ch]
				if moved != (ch == loc.Channel) {
					t.Fatalf("%v: line %#x read moved channel %d, FirstProbeLoc says channel %d",
						policy, line, ch, loc.Channel)
				}
			}
		}
		if differ == 0 {
			t.Errorf("%v: the first probe always shares the line's main-memory channel; the test shows nothing", policy)
		}
	}
}

func TestKNLMissProbesBothSets(t *testing.T) {
	data := newTestData()
	c := New(Config{
		Sets: 64, Policy: PolicyDICE, Org: OrgKNL,
		Mem: dram.New(dram.HBMConfig()), Sizes: data,
	})
	var line uint64
	for line = 0; Invariant(line, 64); line++ {
	}
	r := c.Read(0, line)
	if r.Hit {
		t.Fatal("cold miss expected")
	}
	if c.Stats().Probes != 2 {
		t.Fatalf("KNL miss on non-invariant line needs 2 probes, got %d", c.Stats().Probes)
	}
	// Invariant lines still need only one probe.
	var inv uint64
	for inv = 0; !Invariant(inv, 64); inv++ {
	}
	before := c.Stats().Probes
	c.Read(0, inv)
	if c.Stats().Probes != before+1 {
		t.Fatal("invariant KNL miss should cost one probe")
	}
}

func TestSCCProbesFourPerRead(t *testing.T) {
	data := newTestData()
	c := newCache(PolicySCC, 64, data)
	c.Read(0, 100)
	if got := c.Stats().Probes; got != 4 {
		t.Fatalf("SCC read probes = %d, want 4 (3 tag + 1 data)", got)
	}
}

func TestWritebackHitUpdatesInPlace(t *testing.T) {
	data := newTestData()
	data.setRange(0, 256, "small")
	c := newCache(PolicyDICE, 64, data)
	c.Install(0, 20, false)
	res := c.Writeback(1000, 20)
	if len(res.Victims) != 0 {
		t.Fatal("writeback hit should not evict")
	}
	if c.Stats().WritebackHits != 1 {
		t.Fatalf("stats = %+v", c.Stats())
	}
	// The line must now be dirty: evicting it yields a dirty victim.
	set := &c.sets[Index(BAI, 20, 64)]
	if i := set.find(20); i < 0 || !set.entries[i].dirty {
		t.Fatal("writeback must mark line dirty")
	}
}

func TestWritebackMissInstallsDirty(t *testing.T) {
	data := newTestData()
	c := newCache(PolicyDICE, 64, data)
	c.Writeback(0, 77)
	if !c.Contains(77) {
		t.Fatal("writeback miss must install")
	}
	if c.Stats().WritebackHits != 0 {
		t.Fatal("should have been a writeback miss")
	}
}

// TestInstallReusesVictimBuffer checks that evicting installs allocate
// nothing once the cache's victim buffer exists: InstallResult.Victims
// is that buffer, valid until the next Install or Writeback.
func TestInstallReusesVictimBuffer(t *testing.T) {
	c := newCache(PolicyUncompressed, 64, nil)
	line := uint64(5)
	c.Install(0, line, true)
	c.Install(0, line+64, true) // the first eviction grows the buffer
	line += 64
	allocs := testing.AllocsPerRun(100, func() {
		line += 64 // same set: evicts the line installed last time
		res := c.Install(0, line, true)
		if len(res.Victims) != 1 || res.Victims[0] != (Victim{Line: line - 64, Dirty: true}) {
			t.Fatalf("install %d: victims = %+v, want dirty line %d", line, res.Victims, line-64)
		}
	})
	if allocs != 0 {
		t.Fatalf("an evicting install allocated %.1f times, want 0", allocs)
	}
}

func TestDirtyEvictionReportsVictim(t *testing.T) {
	data := newTestData()
	data.setRange(0, 1024, "random")
	c := newCache(PolicyTSI, 64, data)
	c.Install(0, 5, true)            // dirty
	res := c.Install(0, 5+64, false) // conflicts
	if len(res.Victims) != 1 || !res.Victims[0].Dirty || res.Victims[0].Line != 5 {
		t.Fatalf("victims = %+v", res.Victims)
	}
	if c.Stats().DirtyEvictions != 1 {
		t.Fatalf("stats = %+v", c.Stats())
	}
}

func TestSetPackingInvariants(t *testing.T) {
	data := newTestData()
	data.setRange(0, 1<<16, "small")
	c := newCache(PolicyDICE, 256, data)
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 20000; i++ {
		line := uint64(rng.UintN(1 << 14))
		if !c.Contains(line) {
			c.Install(0, line, rng.UintN(8) == 0)
		}
	}
	for i := range c.sets {
		s := &c.sets[i]
		if u := s.usage(); u > SetBytes {
			t.Fatalf("set %d usage %d > %d", i, u, SetBytes)
		}
		if n := s.lineCount(); n > MaxLinesPerSet {
			t.Fatalf("set %d holds %d lines", i, n)
		}
		seen := map[uint64]bool{}
		for _, e := range s.entries {
			if seen[e.line] {
				t.Fatalf("duplicate line %d in set %d", e.line, i)
			}
			seen[e.line] = true
		}
	}
}

func TestNoDuplicateAcrossCandidateSets(t *testing.T) {
	data := newTestData()
	data.setRange(0, 1<<16, "small")
	c := newCache(PolicyDICE, 256, data)
	rng := rand.New(rand.NewPCG(5, 6))
	lines := make([]uint64, 0, 4000)
	for i := 0; i < 4000; i++ {
		line := uint64(rng.UintN(1 << 12))
		lines = append(lines, line)
		r := c.Read(0, line)
		if !r.Hit {
			c.Install(r.Done, line, false)
		}
		if i%3 == 0 {
			c.Writeback(0, line)
		}
	}
	for _, line := range lines {
		tsi := Index(TSI, line, 256)
		bai := Index(BAI, line, 256)
		if tsi != bai && c.sets[tsi].find(line) >= 0 && c.sets[bai].find(line) >= 0 {
			t.Fatalf("line %d resident in both candidate sets", line)
		}
	}
}

func TestEffectiveCapacityCompressibleBeatsBaseline(t *testing.T) {
	sets := 256
	zero := newTestData()
	zero.setRange(0, 1<<16, "zero")
	comp := newCache(PolicyBAI, sets, zero)
	rnd := newTestData()
	rnd.setRange(0, 1<<16, "random")
	incomp := newCache(PolicyBAI, sets, rnd)
	for line := uint64(0); line < uint64(8*sets); line++ {
		comp.Install(0, line, false)
		incomp.Install(0, line, false)
	}
	if cc := comp.EffectiveCapacity(); cc < 2 {
		t.Fatalf("zero-line capacity = %v, want >= 2x", cc)
	}
	if ic := incomp.EffectiveCapacity(); ic > 1.01 {
		t.Fatalf("incompressible capacity = %v, want ~1x", ic)
	}
}

func TestCIPAccuracyOnStablePages(t *testing.T) {
	data := newTestData()
	sets := 1 << 10
	// Pages alternate compressible/incompressible; within a page all
	// lines agree, the situation CIP exploits.
	for page := uint64(0); page < 64; page++ {
		kind := "small"
		if page%2 == 1 {
			kind = "random"
		}
		data.setRange(page*64, (page+1)*64, kind)
	}
	c := newCache(PolicyDICE, sets, data)
	rng := rand.New(rand.NewPCG(9, 10))
	for i := 0; i < 30000; i++ {
		line := uint64(rng.UintN(64 * 64))
		r := c.Read(0, line)
		if !r.Hit {
			c.Install(r.Done, line, false)
		}
	}
	if acc := c.CIP().Accuracy(); acc < 0.85 {
		t.Fatalf("CIP accuracy = %v on page-stable data, want > 0.85", acc)
	}
}

func TestReadTimingChargesDRAM(t *testing.T) {
	data := newTestData()
	c := newCache(PolicyDICE, 64, data)
	r := c.Read(0, 3)
	if r.Done == 0 {
		t.Fatal("read must take time")
	}
	if c.cfg.Mem.Stats().Accesses() == 0 {
		t.Fatal("read must touch the DRAM device")
	}
}

// Property: a freshly installed line is always Contains-visible and a
// subsequent Read hits, regardless of policy or compressibility.
func TestQuickInstallThenHit(t *testing.T) {
	policies := []Policy{PolicyUncompressed, PolicyTSI, PolicyNSI, PolicyBAI, PolicyDICE, PolicySCC}
	data := newTestData()
	rng := rand.New(rand.NewPCG(77, 78))
	kinds := []string{"zero", "small", "random"}
	for l := uint64(0); l < 1<<12; l++ {
		data.set(l, kinds[rng.UintN(3)])
	}
	caches := make([]*Cache, len(policies))
	for i, p := range policies {
		var d Sizer
		if p != PolicyUncompressed {
			d = data
		}
		caches[i] = newCache(p, 128, d)
	}
	f := func(lineRaw uint16) bool {
		line := uint64(lineRaw) % (1 << 12)
		for _, c := range caches {
			r := c.Read(0, line)
			if !r.Hit {
				c.Install(r.Done, line, false)
			}
			if !c.Contains(line) {
				return false
			}
			if r2 := c.Read(0, line); !r2.Hit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPolicyString(t *testing.T) {
	want := map[Policy]string{
		PolicyUncompressed: "base", PolicyTSI: "tsi", PolicyNSI: "nsi",
		PolicyBAI: "bai", PolicyDICE: "dice", PolicySCC: "scc",
		Policy(42): "policy(42)",
	}
	for p, s := range want {
		if p.String() != s {
			t.Fatalf("Policy(%d).String() = %q, want %q", p, p.String(), s)
		}
	}
}

func TestCIPTable(t *testing.T) {
	p := NewCIP(512)
	if p.StorageBits() != 512 {
		t.Fatal("storage bits")
	}
	line := uint64(12345)
	if p.Predict(line) {
		t.Fatal("fresh table predicts TSI")
	}
	p.Train(line, true)
	if !p.Predict(line) {
		t.Fatal("trained BAI not predicted")
	}
	p.Resolve(line, true, true)
	p.Resolve(line, true, false)
	if p.Predictions() != 2 || p.Accuracy() != 0.5 {
		t.Fatalf("accuracy = %v over %d", p.Accuracy(), p.Predictions())
	}
	for _, n := range []int{0, 3, -8} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewCIP(%d) accepted", n)
				}
			}()
			NewCIP(n)
		}()
	}
}

func TestMAPITraining(t *testing.T) {
	m := NewMAPI(1024)
	line := uint64(999)
	if !m.PredictHit(line) {
		t.Fatal("fresh MAPI predicts hit (avoids useless parallel fetches)")
	}
	for i := 0; i < 6; i++ {
		m.Update(line, m.PredictHit(line), false)
	}
	if m.PredictHit(line) {
		t.Fatal("repeated misses must flip the prediction")
	}
	for i := 0; i < 8; i++ {
		m.Update(line, m.PredictHit(line), true)
	}
	if !m.PredictHit(line) {
		t.Fatal("repeated hits must flip back")
	}
	if m.Accuracy() <= 0 || m.Accuracy() > 1 {
		t.Fatalf("accuracy = %v", m.Accuracy())
	}
}

func TestThresholdDegenerates(t *testing.T) {
	data := newTestData()
	data.setRange(0, 1024, "small") // 36B
	sets := 64
	var line uint64
	for line = 0; Invariant(line, sets); line++ {
	}
	// Threshold -1: never BAI.
	alwaysTSI := New(Config{Sets: sets, Policy: PolicyDICE, Threshold: -1,
		Mem: dram.New(dram.HBMConfig()), Sizes: data})
	if res := alwaysTSI.Install(0, line, false); res.UsedBAI {
		t.Fatal("threshold -1 must degenerate to TSI")
	}
	// Threshold 64: always BAI (any line fits 64).
	rnd := newTestData()
	rnd.setRange(0, 1024, "random")
	alwaysBAI := New(Config{Sets: sets, Policy: PolicyDICE, Threshold: 64,
		Mem: dram.New(dram.HBMConfig()), Sizes: rnd})
	if res := alwaysBAI.Install(0, line, false); !res.UsedBAI {
		t.Fatal("threshold 64 must degenerate to BAI")
	}
}

func TestWritePredictionAccuracy(t *testing.T) {
	data := newTestData()
	// Page-stable compressibility: the write predictor (compressibility
	// rule) should be nearly perfect, as in the paper's 95%.
	for page := uint64(0); page < 64; page++ {
		kind := "small"
		if page%2 == 1 {
			kind = "random"
		}
		data.setRange(page*64, (page+1)*64, kind)
	}
	c := newCache(PolicyDICE, 1<<10, data)
	rng := rand.New(rand.NewPCG(41, 42))
	for i := 0; i < 20000; i++ {
		line := uint64(rng.UintN(64 * 64))
		if i%3 == 0 {
			c.Writeback(0, line)
			continue
		}
		r := c.Read(0, line)
		if !r.Hit {
			c.Install(r.Done, line, false)
		}
	}
	s := c.Stats()
	if s.WritePredictions == 0 {
		t.Fatal("no write predictions scored")
	}
	if acc := s.WriteAccuracy(); acc < 0.9 {
		t.Fatalf("write prediction accuracy = %.3f, want >= 0.9 (paper: 95%%)", acc)
	}
}

func TestInstallSizeBuckets(t *testing.T) {
	data := newTestData()
	data.set(1, "zero")   // 0B  -> bucket 0
	data.set(3, "small")  // 36B -> bucket 5
	data.set(5, "random") // 64B -> bucket 8
	c := newCache(PolicyDICE, 64, data)
	for _, l := range []uint64{1, 3, 5} {
		c.Install(0, l, false)
	}
	b := c.Stats().InstallSizeBuckets
	if b[0] != 1 || b[5] != 1 || b[8] != 1 {
		t.Fatalf("buckets = %v", b)
	}
	var total uint64
	for _, n := range b {
		total += n
	}
	if total != c.Stats().Installs {
		t.Fatalf("bucket sum %d != installs %d", total, c.Stats().Installs)
	}
}

func BenchmarkDICEReadHit(b *testing.B) {
	data := newTestData()
	data.setRange(0, 1<<16, "small")
	c := newCache(PolicyDICE, 1<<12, data)
	for line := uint64(0); line < 1<<12; line++ {
		c.Install(0, line, false)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Read(uint64(i)*4, uint64(i)%(1<<12))
	}
}

func BenchmarkDICEInstall(b *testing.B) {
	data := newTestData()
	data.setRange(0, 1<<20, "small")
	c := newCache(PolicyDICE, 1<<12, data)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Install(uint64(i)*4, uint64(i)%(1<<18), false)
	}
}
