package core

import (
	"encoding/binary"
	"testing"

	"dice/internal/compress"
	"dice/internal/dram"
)

// stubData serves compressible lines for even pages and incompressible
// lines for odd pages.
type stubData struct{}

func (stubData) FillLine(line uint64, buf []byte) bool {
	if (line>>6)%2 == 0 {
		base := uint32(0x50000000)
		for i := 0; i < 16; i++ {
			binary.LittleEndian.PutUint32(buf[i*4:], base+uint32(line)+uint32(i*13))
		}
	} else {
		h := line*0x9E3779B97F4A7C15 + 1
		for i := 0; i < 8; i++ {
			h ^= h << 13
			h ^= h >> 7
			h ^= h << 17
			binary.LittleEndian.PutUint64(buf[i*8:], h)
		}
	}
	return true
}

func (d stubData) Size(alg compress.AlgID, line uint64) int {
	buf := make([]byte, 64)
	d.FillLine(line, buf)
	return compress.SizeWith(alg, buf)
}

func (d stubData) PairSize(alg compress.AlgID, evenLine uint64) int {
	a, b := make([]byte, 64), make([]byte, 64)
	d.FillLine(evenLine, a)
	d.FillLine(evenLine|1, b)
	return compress.PairSizeWith(alg, a, b)
}

func TestFacadeMissInstallHit(t *testing.T) {
	c := New(Config{Sets: 256, Design: DICE, Sizes: stubData{}})
	r := c.Read(0, 42)
	if r.Hit {
		t.Fatal("cold read must miss")
	}
	c.Install(r.Done, 42, false)
	if !c.Contains(42) {
		t.Fatal("installed line not resident")
	}
	r2 := c.Read(r.Done+100, 42)
	if !r2.Hit || r2.Done <= r.Done {
		t.Fatalf("expected later hit, got %+v", r2)
	}
	s := c.Stats()
	if s.Reads != 2 || s.ReadHits != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if c.DRAMStats().Accesses() == 0 {
		t.Fatal("device saw no traffic")
	}
}

func TestFacadeDesigns(t *testing.T) {
	for _, d := range []Design{Alloy, CompressTSI, CompressBAI, DICE} {
		var data Sizer
		if d != Alloy {
			data = stubData{}
		}
		c := New(Config{Sets: 128, Design: d, Sizes: data})
		r := c.Read(0, 7)
		if r.Hit {
			t.Fatalf("%v: cold hit", d)
		}
		c.Install(r.Done, 7, true)
		if !c.Contains(7) {
			t.Fatalf("%v: line lost", d)
		}
	}
}

func TestFacadeKNL(t *testing.T) {
	c := New(Config{Sets: 128, Design: DICE, KNL: true, Sizes: stubData{}})
	c.Install(0, 3, false)
	if !c.Read(1000, 3).Hit {
		t.Fatal("KNL organization should still hit")
	}
}

func TestFacadeCustomDRAM(t *testing.T) {
	cfg := dram.DDRConfig()
	c := New(Config{Sets: 128, Design: Alloy, DRAM: &cfg})
	c.Read(0, 1)
	if c.DRAMStats().Reads != 1 {
		t.Fatal("custom device not used")
	}
}

func TestFacadeEffectiveCapacity(t *testing.T) {
	c := New(Config{Sets: 128, Design: CompressBAI, Sizes: stubData{}})
	// Fill with even-page (compressible) buddies.
	for line := uint64(0); line < 256; line += 2 {
		page := (line >> 6)
		if page%2 != 0 {
			continue
		}
		c.Install(0, line, false)
		c.Install(0, line+1, false)
	}
	if c.EffectiveCapacity() <= 0 {
		t.Fatal("no lines resident")
	}
}

func TestFacadeCompressHelpers(t *testing.T) {
	zero := make([]byte, 64)
	if CompressedSize(zero) != 0 {
		t.Fatal("zero line should compress to nothing")
	}
	if PairSize(zero, zero) != 0 {
		t.Fatal("zero pair should compress to nothing")
	}
	noise := make([]byte, 64)
	stubData{}.FillLine(65, noise)
	if CompressedSize(noise) != 64 {
		t.Fatal("noise should not compress")
	}
}

func TestDesignString(t *testing.T) {
	names := map[Design]string{
		Alloy: "alloy", CompressTSI: "compress-tsi",
		CompressBAI: "compress-bai", DICE: "dice", Design(9): "design(9)",
	}
	for d, want := range names {
		if d.String() != want {
			t.Fatalf("Design(%d).String() = %q", d, d.String())
		}
	}
}

func TestFacadeCIPExercised(t *testing.T) {
	c := New(Config{Sets: 1024, Design: DICE, Sizes: stubData{}})
	for i := 0; i < 5000; i++ {
		line := uint64(i*7) % 4096
		r := c.Read(uint64(i)*50, line)
		if !r.Hit {
			c.Install(r.Done, line, false)
		}
	}
	if c.CIPAccuracy() <= 0 {
		t.Fatal("CIP never scored")
	}
}
