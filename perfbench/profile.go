package main

// Stdlib-only CPU-profile folding. runtime/pprof writes a gzip'd protobuf
// (github.com/google/pprof proto/profile.proto); this file decodes the few
// messages it needs and charges every sample to one layer of the program,
// so a traced run can report where host time goes without `go tool pprof`.
//
// Attribution rule: walk a sample's frames from the leaf outwards (inlined
// frames innermost first) and charge it to the first repro/internal/<pkg>
// frame; runtime and standard-library frames below it count toward that
// caller. Samples with no such frame are "unattributed" (scheduler, GC
// workers), or "harness" when the benchmark's own code is on the stack.
// Two splits ride along: memmove /
// memclr leaves charged to gpu (payload copies and buffer clears), and
// lock/select/chan/futex/park frames charged to sim (proc handoff).

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

const internalPrefix = "repro/internal/"

// unattributed is the pseudo-layer of samples without a repro/internal
// frame; harness holds those whose only repro frames are the benchmark's
// own (package main).
const (
	unattributed = "unattributed"
	harness      = "harness"
)

// layerShares is a folded profile: sample weight per layer plus the splits.
type layerShares struct {
	Total      int64
	ByLayer    map[string]int64
	GPUCopy    int64 // memmove leaves charged to gpu
	GPUClear   int64 // memclr leaves charged to gpu
	SimHandoff int64 // lock/select/chan/futex/park frames charged to sim
}

// share returns v as a fraction of all sample weight (0 for an empty profile).
func (ls layerShares) share(v int64) float64 {
	if ls.Total == 0 {
		return 0
	}
	return float64(v) / float64(ls.Total)
}

// layerOf maps a fully qualified function name to its repro/internal
// package's first path element ("repro/internal/solver/cg.Run" → "solver"),
// or "" for any other function.
func layerOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, internalPrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		return rest[:i]
	}
	return rest
}

// isHandoff reports whether a runtime frame belongs to goroutine handoff.
func isHandoff(fn string) bool {
	if !strings.HasPrefix(fn, "runtime.") {
		return false
	}
	for _, k := range []string{"lock", "select", "chan", "futex", "park"} {
		if strings.Contains(fn, k) {
			return true
		}
	}
	return false
}

// foldFrames charges one sample (frames leaf first) of weight w.
func (ls *layerShares) foldFrames(frames []string, w int64) {
	ls.Total += w
	for i, fn := range frames {
		layer := layerOf(fn)
		if layer == "" {
			continue
		}
		ls.ByLayer[layer] += w
		below := frames[:i]
		switch layer {
		case "gpu":
			if len(below) > 0 {
				leaf := below[0]
				if leaf == "runtime.memmove" {
					ls.GPUCopy += w
				} else if strings.HasPrefix(leaf, "runtime.memclr") {
					ls.GPUClear += w
				}
			}
		case "sim":
			for _, b := range below {
				if isHandoff(b) {
					ls.SimHandoff += w
					break
				}
			}
		}
		return
	}
	for _, fn := range frames {
		if strings.HasPrefix(fn, "main.") {
			ls.ByLayer[harness] += w
			return
		}
	}
	ls.ByLayer[unattributed] += w
}

// foldProfile decodes a gzip'd pprof CPU profile and folds it by layer. The
// sample value used is the "cpu" (nanoseconds) column when present, else
// the first column.
func foldProfile(gz []byte) (layerShares, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return layerShares{}, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return layerShares{}, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return layerShares{}, err
	}
	col := 0
	for i, t := range p.sampleTypes {
		if p.str(t) == "cpu" {
			col = i
		}
	}
	ls := layerShares{ByLayer: map[string]int64{}}
	var frames []string
	for _, s := range p.samples {
		if col >= len(s.values) {
			continue
		}
		frames = frames[:0]
		for _, id := range s.locations {
			for _, fid := range p.locations[id] {
				frames = append(frames, p.str(p.functions[fid]))
			}
		}
		ls.foldFrames(frames, s.values[col])
	}
	return ls, nil
}

// profile is the decoded subset of a pprof Profile message.
type profile struct {
	sampleTypes []int64 // string-table index of each value column's type
	samples     []sample
	locations   map[uint64][]uint64 // location id → function ids, innermost first
	functions   map[uint64]int64    // function id → string-table index of its name
	strings     []string
}

type sample struct {
	locations []uint64 // leaf first
	values    []int64
}

func (p *profile) str(i int64) string {
	if i < 0 || i >= int64(len(p.strings)) {
		return ""
	}
	return p.strings[i]
}

// Field numbers of profile.proto.
const (
	profSampleType  = 1
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	valueTypeType = 1

	sampleLocationID = 1
	sampleValue      = 2

	locationID   = 1
	locationLine = 4
	lineFunction = 1

	functionID   = 1
	functionName = 2
)

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := walkFields(b, func(num int, v uint64, data []byte) error {
		switch num {
		case profSampleType:
			var typ int64
			err := walkFields(data, func(n int, v uint64, _ []byte) error {
				if n == valueTypeType {
					typ = int64(v)
				}
				return nil
			})
			p.sampleTypes = append(p.sampleTypes, typ)
			return err
		case profSample:
			var s sample
			err := walkFields(data, func(n int, v uint64, d []byte) error {
				switch n {
				case sampleLocationID:
					return appendVarints(&s.locations, v, d)
				case sampleValue:
					var u []uint64
					if err := appendVarints(&u, v, d); err != nil {
						return err
					}
					for _, x := range u {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case profLocation:
			var id uint64
			var fns []uint64
			err := walkFields(data, func(n int, v uint64, d []byte) error {
				switch n {
				case locationID:
					id = v
				case locationLine:
					return walkFields(d, func(n int, v uint64, _ []byte) error {
						if n == lineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case profFunction:
			var id uint64
			var name int64
			err := walkFields(data, func(n int, v uint64, _ []byte) error {
				switch n {
				case functionID:
					id = v
				case functionName:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case profStringTable:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	return p, nil
}

var errTruncated = errors.New("truncated protobuf")

// walkFields calls fn for every field of a protobuf message: v carries
// varint and fixed-width values, data the payload of length-delimited ones.
func walkFields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0: // varint
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1: // fixed64
			if len(b) < 8 {
				return errTruncated
			}
			v = binary.LittleEndian.Uint64(b)
			b = b[8:]
		case 2: // length-delimited
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5: // fixed32
			if len(b) < 4 {
				return errTruncated
			}
			v = uint64(binary.LittleEndian.Uint32(b))
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed (data set) or not.
func appendVarints(dst *[]uint64, v uint64, data []byte) error {
	if data == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}
