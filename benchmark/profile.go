package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// cpuSample is one decoded CPU-profile sample: its stack as function
// names, innermost frame first (inlined frames expanded), the CPU time
// it stands for, and its string labels.
type cpuSample struct {
	stack  []string
	nanos  int64
	labels map[string]string
}

// decodeCPUProfile parses the gzipped profile.proto that
// runtime/pprof.StartCPUProfile writes, keeping only what the ledger
// needs: stacks, CPU nanoseconds and string labels. It reads the wire
// format directly so the benchmark needs nothing outside the standard
// library.
func decodeCPUProfile(gz []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type rawSample struct {
		locs   []uint64
		values []int64
		labels [][2]int64 // string-table indices of key and value
	}
	var (
		strs       []string
		samples    []rawSample
		locFuncs   = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames  = map[uint64]int64{}    // function id -> name string index
		valueTypes [][2]int64              // sample_type: type and unit string indices
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var vt [2]int64
			err := eachField(b, func(num, _ int, v uint64, _ []byte) error {
				if num == 1 || num == 2 {
					vt[num-1] = int64(v)
				}
				return nil
			})
			valueTypes = append(valueTypes, vt)
			return err
		case 2: // sample
			var s rawSample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendPacked(s.locs, wire, v, b)
				case 2:
					for _, u := range appendPacked(nil, wire, v, b) {
						s.values = append(s.values, int64(u))
					}
				case 3:
					var kv [2]int64
					err := eachField(b, func(num, _ int, v uint64, _ []byte) error {
						if num == 1 || num == 2 {
							kv[num-1] = int64(v)
						}
						return nil
					})
					if err != nil {
						return err
					}
					s.labels = append(s.labels, kv)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, _ int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num, _ int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(num, _ int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	nanosIdx := -1
	for i, vt := range valueTypes {
		if str(vt[1]) == "nanoseconds" {
			nanosIdx = i
		}
	}
	if nanosIdx < 0 {
		return nil, errors.New("profile: no nanoseconds sample type (not a CPU profile?)")
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		if nanosIdx >= len(s.values) {
			return nil, errors.New("profile: sample without a CPU-time value")
		}
		cs := cpuSample{nanos: s.values[nanosIdx]}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				cs.stack = append(cs.stack, str(funcNames[fn]))
			}
		}
		if len(s.labels) > 0 {
			cs.labels = make(map[string]string, len(s.labels))
			for _, kv := range s.labels {
				cs.labels[str(kv[0])] = str(kv[1])
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

// appendPacked appends a repeated varint field that may arrive either
// packed (wire type 2) or as one varint per field occurrence.
func appendPacked(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire != 2 {
		return append(dst, v)
	}
	for len(b) > 0 {
		u, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		b = b[n:]
	}
	return dst
}

// eachField walks one protobuf message, calling fn with each field's
// number and wire type, its value for varint and fixed-width fields,
// and its bytes for length-delimited ones.
func eachField(b []byte, fn func(num int, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: malformed field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var (
			v   uint64
			val []byte
		)
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: malformed varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: truncated fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: truncated length-delimited field")
			}
			val = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: truncated fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, val); err != nil {
			return err
		}
	}
	return nil
}
