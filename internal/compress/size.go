package compress

import "fmt"

// Single-algorithm sizing, used by the compression-algorithm ablation:
// DICE is orthogonal to the compression scheme (Section 7.1), and these
// helpers let the cache run with FPC alone or BDI alone instead of the
// hybrid selector. Both take the allocation-free size-only paths, and
// Compress and CompressPair encode exactly what they size.

// ParseAlg maps a compressor name to the algorithm SizeWith and
// PairSizeWith size with: "fpc" is AlgFPC, "bdi" is
// AlgBDI, and "hybrid" or "" is the zero AlgID, the hybrid FPC+BDI
// selector the paper evaluates with. It is the one place compressor
// names are read.
func ParseAlg(name string) (AlgID, error) {
	switch name {
	case "", "hybrid":
		return AlgNone, nil
	case "fpc":
		return AlgFPC, nil
	case "bdi":
		return AlgBDI, nil
	}
	return AlgNone, fmt.Errorf("unknown compress %q (want hybrid, fpc or bdi)", name)
}

// SizeWith returns the compressed size of a line under one algorithm
// family: AlgFPC (FPC + zero lines), AlgBDI (BDI + zero lines), or
// anything else for the full hybrid, which is exactly CompressedSize.
func SizeWith(alg AlgID, line []byte) int {
	s, _, _ := sizeChoice(alg, line)
	return s
}

// PairSizeWith returns the adjacent-pair size under one algorithm
// family. Base sharing applies only to BDI-encoded pairs; FPC pairs
// still share the tag (a set-format property) but not data bytes.
func PairSizeWith(alg AlgID, a, b []byte) int {
	sa, algA, modeA := sizeChoice(alg, a)
	sb, _, _ := sizeChoice(alg, b)
	if shared, ok := pairSharedSize(a, b, sa, algA, modeA); ok && shared < sa+sb {
		return shared
	}
	return sa + sb
}
