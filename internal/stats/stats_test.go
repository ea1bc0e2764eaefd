package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{2, 8}); g != 4 {
		t.Fatalf("geomean = %v", g)
	}
	if g := GeoMean(nil); g != 1 {
		t.Fatalf("empty geomean = %v", g)
	}
	if g := GeoMean([]float64{-1, 0}); g != 1 {
		t.Fatalf("non-positive geomean = %v", g)
	}
	if g := GeoMean([]float64{3, -1, 3}); math.Abs(g-3) > 1e-12 {
		t.Fatalf("mixed geomean = %v", g)
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("empty mean")
	}
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("mean")
	}
}

// Property: GeoMean of positive values lies between min and max.
func TestQuickGeoMeanBounds(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, r := range raw {
			xs[i] = float64(r)/100 + 0.01
			lo = math.Min(lo, xs[i])
			hi = math.Max(hi, xs[i])
		}
		g := GeoMean(xs)
		return g >= lo-1e-9 && g <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
