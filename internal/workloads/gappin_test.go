package workloads

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"
)

// gapPins is the sha256 of every GAP6 build (see gapDigest) at the
// default scale, which the catalog's experiments and the benchmark use,
// and at testScale, which the unit, daemon and sweep tests use. A
// faster graph generator or kernel tracer must reproduce these bytes:
// any change here moves every GAP result.
var gapPins = map[uint]map[string]string{
	10: {
		"bc_twi": "c3fae0c5e44d11917fe6df2887d52c1c76f5efa48842ba5b6afed889f684abcd",
		"bc_web": "2b0560f2657e480153257cb08995cf7992e13ed6da720cbc25085dd33f5469b2",
		"cc_twi": "a835eaf3af7a209f5a9b0d729bee4a656efc408f833ff025be234734c117c55e",
		"cc_web": "a469d08c48169fba6a81b1a13fb664992eb567278a1513bc6637042cf3eab1ca",
		"pr_twi": "21c8d5c53869ea1bc981b76517dda2922fc77c4d4e990a969f4c081b4f8646cf",
		"pr_web": "38bba9820c7061fa7a151355976f41229a53db5dac1694ab13308703f576b194",
	},
	testScale: {
		"bc_twi": "c3fae0c5e44d11917fe6df2887d52c1c76f5efa48842ba5b6afed889f684abcd",
		"bc_web": "ec37e42f8b86e6801f11d3bff90819d3289cc1cc88b1c4876c654921cf0e26d3",
		"cc_twi": "a835eaf3af7a209f5a9b0d729bee4a656efc408f833ff025be234734c117c55e",
		"cc_web": "a469d08c48169fba6a81b1a13fb664992eb567278a1513bc6637042cf3eab1ca",
		"pr_twi": "21c8d5c53869ea1bc981b76517dda2922fc77c4d4e990a969f4c081b4f8646cf",
		"pr_web": "1a4344010fffe248ef1d58427814a61172eb5aa304794c904fbe5f92331385f1",
	},
}

// gapDigest hashes one GAP build: its footprint in lines, its recorded
// request trace (line and write flag of each request), and every line
// of its data image. The image starts with the CSR's RowPtr and Col
// arrays and ends with the kernel's final arrays, so the digest pins
// the graph generator as well as the kernel.
func gapDigest(bg *builtGAP) string {
	h := sha256.New()
	var b [9]byte
	binary.LittleEndian.PutUint64(b[:8], bg.footprintLines)
	h.Write(b[:8])
	binary.LittleEndian.PutUint64(b[:8], uint64(len(bg.reqs)))
	h.Write(b[:8])
	for _, r := range bg.reqs {
		binary.LittleEndian.PutUint64(b[:8], r.Line)
		b[8] = 0
		if r.Write {
			b[8] = 1
		}
		h.Write(b[:])
	}
	line := make([]byte, 64)
	for l := uint64(0); l < bg.footprintLines; l++ {
		bg.ws.FillLine(l, line)
		h.Write(line)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestGAPBuildsPinned(t *testing.T) {
	for _, scale := range []uint{10, testScale} {
		for _, w := range GAP6() {
			t.Run(fmt.Sprintf("%s/scale%d", w.Name, scale), func(t *testing.T) {
				got := gapDigest(buildGAP(w.Cores[0], scale))
				if want := gapPins[scale][w.Name]; got != want {
					t.Errorf("digest %s, want %s", got, want)
				}
			})
		}
	}
}
