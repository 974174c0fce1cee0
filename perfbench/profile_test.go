package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

// pb is a minimal protobuf encoder for building synthetic profiles.
type pb []byte

func (b pb) varint(num int, v uint64) pb {
	b = binary.AppendUvarint(b, uint64(num)<<3)
	return binary.AppendUvarint(b, v)
}

func (b pb) bytes(num int, data []byte) pb {
	b = binary.AppendUvarint(b, uint64(num)<<3|2)
	b = binary.AppendUvarint(b, uint64(len(data)))
	return append(b, data...)
}

func (b pb) packed(num int, vs ...uint64) pb {
	var data []byte
	for _, v := range vs {
		data = binary.AppendUvarint(data, v)
	}
	return b.bytes(num, data)
}

// synthProfile builds a gzip'd profile: each stack lists function names
// leaf first (one location per frame, except that a stack entry holding
// several names separated by "|" becomes one location with inlined lines,
// innermost first), with the given cpu-nanosecond weight.
func synthProfile(t *testing.T, stacks [][]string, weights []int64) []byte {
	t.Helper()
	strs := []string{""}
	strIdx := map[string]uint64{"": 0}
	intern := func(s string) uint64 {
		if i, ok := strIdx[s]; ok {
			return i
		}
		strIdx[s] = uint64(len(strs))
		strs = append(strs, s)
		return strIdx[s]
	}
	var msg pb
	msg = msg.bytes(profSampleType, pb(nil).varint(1, intern("samples")).varint(2, intern("count")))
	msg = msg.bytes(profSampleType, pb(nil).varint(1, intern("cpu")).varint(2, intern("nanoseconds")))
	funcIDs := map[string]uint64{}
	var nextLoc uint64
	for si, stack := range stacks {
		var locs []uint64
		for _, frame := range stack {
			nextLoc++
			loc := pb(nil).varint(locationID, nextLoc)
			for _, fn := range splitInline(frame) {
				id, ok := funcIDs[fn]
				if !ok {
					id = uint64(len(funcIDs) + 1)
					funcIDs[fn] = id
					msg = msg.bytes(profFunction, pb(nil).varint(functionID, id).varint(functionName, intern(fn)))
				}
				loc = loc.bytes(locationLine, pb(nil).varint(lineFunction, id).varint(2, 7))
			}
			msg = msg.bytes(profLocation, loc)
			locs = append(locs, nextLoc)
		}
		s := pb(nil).packed(sampleLocationID, locs...).packed(sampleValue, 1, uint64(weights[si]))
		msg = msg.bytes(profSample, s)
	}
	for _, s := range strs {
		msg = msg.bytes(profStringTable, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(msg); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func splitInline(frame string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(frame); i++ {
		if i == len(frame) || frame[i] == '|' {
			out = append(out, frame[start:i])
			start = i + 1
		}
	}
	return out
}

func TestFoldSyntheticProfile(t *testing.T) {
	stacks := [][]string{
		// Payload copy: memmove leaf under gpu.Copy, called from bench.
		{"runtime.memmove", "repro/internal/gpu.(*Buffer).copyFrom", "repro/internal/bench.NetConfig.bandwidthRank"},
		// Buffer clear through the allocator.
		{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "repro/internal/gpu.AllocBuffer[...]", "main.main"},
		// Proc handoff: futex under chansend under sim.
		{"runtime.futex", "runtime.chansend", "repro/internal/sim.(*Proc).Park", "repro/internal/mpi.(*Comm).Send"},
		// Plain sim work, inlined into an mpi frame: the innermost inlined
		// frame (sim) wins.
		{"repro/internal/sim.(*queue).push|repro/internal/mpi.deliver", "repro/internal/core.Launch"},
		// Scheduler sample: no repro frame.
		{"runtime.findRunnable", "runtime.schedule"},
		// Nested solver package maps to its first path element.
		{"repro/internal/solver/jacobi.(*state).sweep", "repro/internal/core.Launch"},
		// gpu sample whose leaf is not a copy or clear.
		{"repro/internal/gpu.(*Stream).enqueue"},
		// A handoff-looking frame above the charged layer does not count.
		{"repro/internal/sim.(*Engine).dispatch", "runtime.selectgo"},
		// The benchmark's own code, with no program frame below it.
		{"runtime.nanotime", "main.waitUntil", "main.main"},
	}
	weights := []int64{50, 20, 10, 5, 7, 3, 4, 1, 6}
	ls, err := foldProfile(synthProfile(t, stacks, weights))
	if err != nil {
		t.Fatal(err)
	}
	if ls.Total != 106 {
		t.Fatalf("total %d, want 106", ls.Total)
	}
	want := map[string]int64{"gpu": 74, "sim": 16, unattributed: 7, "solver": 3, harness: 6}
	for layer, w := range want {
		if ls.ByLayer[layer] != w {
			t.Errorf("layer %s = %d, want %d (all: %v)", layer, ls.ByLayer[layer], w, ls.ByLayer)
		}
	}
	if len(ls.ByLayer) != len(want) {
		t.Errorf("unexpected layers: %v", ls.ByLayer)
	}
	if ls.GPUCopy != 50 || ls.GPUClear != 20 || ls.SimHandoff != 10 {
		t.Errorf("splits copy=%d clear=%d handoff=%d, want 50/20/10", ls.GPUCopy, ls.GPUClear, ls.SimHandoff)
	}
	if s := ls.share(ls.SimHandoff); s != 10.0/106 {
		t.Errorf("handoff share %v, want 10/106", s)
	}
}

func TestFoldRejectsTruncatedProfile(t *testing.T) {
	gz := synthProfile(t, [][]string{{"repro/internal/sim.f"}}, []int64{1})
	var raw bytes.Buffer
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := raw.ReadFrom(zr); err != nil {
		t.Fatal(err)
	}
	if _, err := decodeProfile(raw.Bytes()[:raw.Len()-3]); err == nil {
		t.Fatal("truncated profile decoded without error")
	}
}

// TestFoldRealProfile checks the decoder against the runtime's own writer.
func TestFoldRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	x := 0.0
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		for i := 0; i < 1000; i++ {
			x += math.Sqrt(float64(i))
		}
	}
	pprof.StopCPUProfile()
	if x == 0 {
		t.Fatal("unreachable")
	}
	ls, err := foldProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if ls.Total <= 0 || ls.ByLayer[unattributed]+ls.ByLayer[harness] != ls.Total {
		t.Fatalf("real profile folded to %+v; want no program layer", ls)
	}
}
