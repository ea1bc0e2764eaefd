package core_test

import (
	"fmt"

	"dice/internal/core"
)

// zeroData serves all-zero lines, which compress to a few bytes each,
// so DICE installs them under Bandwidth-Aware Indexing.
type zeroData struct{}

func (zeroData) Line(uint64) []byte { return make([]byte, 64) }

// ExampleCache_Read mirrors the README's library snippet: a read that
// misses is filled with Install, and a compressed hit can deliver the
// adjacent line in the same access.
func ExampleCache_Read() {
	cache := core.New(core.Config{
		Sets:   1 << 10,
		Design: core.DICE,
		Data:   zeroData{},
	})
	var now uint64
	for _, lineAddr := range []uint64{40, 41, 40} {
		r := cache.Read(now, lineAddr)
		if !r.Hit {
			// fetch from the next level, then:
			cache.Install(r.Done, lineAddr, false)
		}
		if r.HasExtra {
			// a compressed hit delivered the neighboring line for free:
			// install it in the level above (the bandwidth benefit)
			fmt.Printf("line %d: hit, delivered adjacent line %d\n", lineAddr, r.Extra)
		} else {
			fmt.Printf("line %d: hit=%v\n", lineAddr, r.Hit)
		}
		now = r.Done + 1000
	}
	// Output:
	// line 40: hit=false
	// line 41: hit=false
	// line 40: hit, delivered adjacent line 41
}
