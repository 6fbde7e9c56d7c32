package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"
)

// cpuProfile is a decoded pprof CPU profile: sampled CPU per layer.
type cpuProfile struct {
	byLayer map[string]time.Duration
	total   time.Duration
	samples int
}

// decodeCPUProfile reads the gzipped profile.proto that runtime/pprof
// writes, with a minimal protobuf reader over the fields it needs:
// Profile.sample_type (1), sample (2), location (4), function (5) and
// string_table (6).
func decodeCPUProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type sampleRec struct{ locs, values []uint64 }
	var (
		strs     []string
		types    []uint64 // string index of each sample type
		samples  []sampleRec
		funcName = map[uint64]uint64{}   // function id -> string index
		locFuncs = map[uint64][]uint64{} // location id -> function ids, innermost first
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return eachField(b, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					types = append(types, v)
				}
				return nil
			})
		case 2: // sample
			samples = append(samples, sampleRec{})
			return eachField(b, func(n int, v uint64, b []byte) error {
				s := &samples[len(samples)-1]
				switch n {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					s.values = appendPacked(s.values, v, b)
				}
				return nil
			})
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
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
			var id, name uint64
			err := eachField(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	cpuIdx := len(types) - 1
	for i, t := range types {
		if str(t) == "cpu" {
			cpuIdx = i
		}
	}
	if cpuIdx < 0 {
		return nil, fmt.Errorf("cpu profile: no sample types")
	}
	p := &cpuProfile{byLayer: map[string]time.Duration{}}
	var stack []string
	for _, s := range samples {
		if cpuIdx >= len(s.values) {
			return nil, fmt.Errorf("cpu profile: sample has %d values, want > %d", len(s.values), cpuIdx)
		}
		stack = stack[:0]
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				stack = append(stack, str(funcName[fn]))
			}
		}
		d := time.Duration(s.values[cpuIdx])
		p.byLayer[layerOf(stack)] += d
		p.total += d
		p.samples++
	}
	return p, nil
}

// eachField calls fn for every field of a protobuf message: varint and
// fixed-width fields pass their value, length-delimited ones their bytes.
// It stops at the first error fn returns.
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num := int(key >> 3)
		var err error
		switch wire := key & 7; wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			err = fn(num, v, nil)
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("truncated fixed64")
			}
			err = fn(num, binary.LittleEndian.Uint64(b), nil)
			b = b[8:]
		case 5:
			if len(b) < 4 {
				return errors.New("truncated fixed32")
			}
			err = fn(num, uint64(binary.LittleEndian.Uint32(b)), nil)
			b = b[4:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errors.New("bad length")
			}
			err = fn(num, 0, b[n:n+int(l)])
			b = b[n+int(l):]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field given either unpacked
// (v, with b nil) or packed (b).
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
