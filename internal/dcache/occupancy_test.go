package dcache

import (
	"math/rand/v2"
	"testing"

	"dice/internal/dram"
	"dice/internal/fault"
)

const (
	// occupancySets is enough sets that ecc+quarantine at BER 1e-3 leaves
	// some unquarantined (checksum drops need compressed residents) over
	// the test's stream, yet few enough to walk after every operation.
	occupancySets = 1024
	// occupancyLines is the stream's line footprint, four lines per set,
	// so single-location (TSI) sets see contention too.
	occupancyLines = 4096
)

// occupancyPaths counts how often a stream reached each place the
// running occupancy counter changes.
type occupancyPaths struct {
	inserts             uint64 // MRU inserts of absent lines
	evictions           uint64 // LRU evictions, quarantine ones included
	quarantineEvictions uint64 // evictions only the quarantine rule makes
	checksumDrops       uint64 // silent corruptions caught and dropped
	dupDrops            uint64 // DICE alternate-location copies dropped
	flushedLines        uint64 // lines lost to detected-frame flushes
}

// occupancyKind gives a line its initial content: half all-zero, a
// quarter BDI-compressible to 36B (BAI under DICE) and a quarter random
// (TSI under DICE).
func occupancyKind(line uint64) string {
	switch (line * 0x9E3779B97F4A7C15 >> 61) & 3 {
	case 0:
		return "small"
	case 1:
		return "random"
	default:
		return "zero"
	}
}

// fitsTogether reports whether lines a and b share one set frame within
// its byte budget, so that only the quarantine rule can evict one to
// make room for the other.
func (c *Cache) fitsTogether(a, b uint64) bool {
	s := set{entries: []entry{{line: a}, {line: b}}}
	s.repack(c)
	return s.usage() <= SetBytes
}

// residentSet returns the set holding line, or -1.
func (c *Cache) residentSet(line uint64) int {
	tsi, bai, _ := c.setsFor(line)
	switch {
	case c.sets[tsi].find(line) >= 0:
		return int(tsi)
	case c.sets[bai].find(line) >= 0:
		return int(bai)
	}
	return -1
}

// occupancyStream is a seeded stream of operations on one cache with
// fault injection at BER 1e-3 under ecc+quarantine. Opcodes: 0
// reads and fills on a miss as the simulator does, 1 installs, 2 writes
// back, 3 flips the line's content between BAI- and TSI-sized (so a
// DICE line changes install location, the one way its stale copy can be
// left at the alternate set) and then installs it. Bit 2 of the opcode
// marks fills dirty. Three operations in four touch a hot eighth of the
// footprint, so reads hit often enough for faults to meet resident
// compressed lines; the rest spread over the whole footprint and keep
// sets evicting. Two streams built from the same seeds apply the same
// operations.
type occupancyStream struct {
	c     *Cache
	data  *testData
	rng   *rand.Rand
	now   uint64
	paths occupancyPaths
}

// newOccupancyStream builds the stream's cache with build (New, or
// newFresh to bypass the storage pool) over its own copy of the
// occupancy data set.
func newOccupancyStream(tb testing.TB, build func(Config) *Cache, policy Policy, org Org, faultSeed, streamSeed uint64) *occupancyStream {
	tb.Helper()
	fm, err := fault.New(fault.Config{BER: 1e-3, Seed: faultSeed, Policy: fault.PolicyECCQuarantine})
	if err != nil {
		tb.Fatal(err)
	}
	data := newTestData()
	for l := uint64(0); l < occupancyLines; l++ {
		data.set(l, occupancyKind(l))
	}
	c := build(Config{
		Sets:   occupancySets,
		Policy: policy,
		Org:    org,
		Mem:    dram.New(dram.HBMConfig()),
		Sizes:  data,
		Faults: fm,
	})
	return &occupancyStream{c: c, data: data, rng: rand.New(rand.NewPCG(streamSeed, 0x0CC))}
}

// step draws and applies the stream's next operation, op, counts the
// paths it reached, and fails tb as soon as OccupiedLines disagrees
// with a walk over every set.
func (d *occupancyStream) step(tb testing.TB, op int) {
	tb.Helper()
	c, data, rng := d.c, d.data, d.rng
	code := rng.UintN(8)
	line := rng.Uint64N(occupancyLines)
	if rng.UintN(4) != 0 {
		line %= occupancyLines / 8
	}
	dirty := code&4 != 0

	was := c.residentSet(line)
	if code&3 == 3 {
		if data.kind[line] == "small" {
			data.set(line, "random")
		} else {
			data.set(line, "small")
		}
		c.forgetSize(line)
	}
	// A candidate set that is quarantined and holds one other line
	// fitting beside this one: an eviction there can only come from
	// the quarantine rule.
	tsi, bai, _ := c.setsFor(line)
	var quarantineOnly [2]bool
	for k, si := range []uint64{tsi, bai} {
		s := &c.sets[si]
		quarantineOnly[k] = c.quarantined[si] && s.lineCount() == 1 &&
			s.entries[0].line != line && c.fitsTogether(line, s.entries[0].line)
	}
	before := c.Stats()

	switch code & 3 {
	case 0:
		r := c.Read(d.now, line)
		d.now = r.Done
		if !r.Hit {
			d.now = c.Install(d.now, line, dirty).Done
		}
	case 1, 3:
		d.now = c.Install(d.now, line, dirty).Done
	case 2:
		d.now = c.Writeback(d.now, line).Done
	}

	after := c.Stats()
	paths := &d.paths
	for i := range after.InstallSizeBuckets {
		paths.inserts += after.InstallSizeBuckets[i] - before.InstallSizeBuckets[i]
	}
	evicted := after.Evictions - before.Evictions
	paths.evictions += evicted
	at := c.residentSet(line)
	if at >= 0 && (quarantineOnly[0] && at == int(tsi) || quarantineOnly[1] && at == int(bai)) {
		paths.quarantineEvictions += evicted
	}
	paths.checksumDrops += after.FaultChecksumCaught - before.FaultChecksumCaught
	paths.flushedLines += after.FaultFlushedLines - before.FaultFlushedLines
	if code&3 == 3 && was >= 0 && at >= 0 && c.sets[was].find(line) < 0 {
		paths.dupDrops++
	}

	if got, want := c.OccupiedLines(), c.scanOccupiedLines(); got != want {
		tb.Fatalf("%v op %d (code %d, line %d): OccupiedLines()=%d, scan counts %d",
			c.cfg.Policy, op, code, line, got, want)
	}
}

// driveOccupancy runs ops operations of a seeded stream against a new
// Alloy-organized cache of the policy and returns the paths reached.
func driveOccupancy(tb testing.TB, policy Policy, faultSeed, streamSeed uint64, ops int) occupancyPaths {
	tb.Helper()
	d := newOccupancyStream(tb, New, policy, OrgAlloy, faultSeed, streamSeed)
	for op := 0; op < ops; op++ {
		d.step(tb, op)
	}
	return d.paths
}

// TestOccupancyCounterMatchesScan drives a seeded stream of reads,
// installs and writebacks under DICE, BAI and SCC with faults injected,
// and checks the running occupancy against a full walk after every
// operation. The stream must reach every place the counter changes.
func TestOccupancyCounterMatchesScan(t *testing.T) {
	for _, p := range []Policy{PolicyDICE, PolicyBAI, PolicySCC} {
		t.Run(p.String(), func(t *testing.T) {
			paths := driveOccupancy(t, p, 11, uint64(p), 200000)
			t.Logf("%+v", paths)
			reached := map[string]uint64{
				"MRU insert":          paths.inserts,
				"LRU eviction":        paths.evictions,
				"quarantine eviction": paths.quarantineEvictions,
				"checksum drop":       paths.checksumDrops,
				"flush":               paths.flushedLines,
			}
			if p == PolicyDICE {
				reached["alternate-location drop"] = paths.dupDrops
			}
			for path, n := range reached {
				if n == 0 {
					t.Errorf("stream never reached the %s path", path)
				}
			}
		})
	}
}

// FuzzCacheOccupancy checks the running occupancy against the walk over
// every set for fuzzer-chosen policies, fault seeds and seeded streams
// of up to 4095 operations. The fuzzer picks the stream's seed rather
// than its bytes, so inputs stay scalars that minimize at once.
func FuzzCacheOccupancy(f *testing.F) {
	for _, p := range []Policy{PolicyDICE, PolicyBAI, PolicySCC} {
		f.Add(uint8(p), uint64(p)+1, uint64(p), uint16(2000))
	}
	f.Fuzz(func(t *testing.T, policy uint8, faultSeed, streamSeed uint64, ops uint16) {
		driveOccupancy(t, Policy(policy%uint8(PolicySCC+1)), faultSeed, streamSeed, int(ops%4096))
	})
}
