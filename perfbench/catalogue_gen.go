package main

// The definition of the catalogue: every cell and query, by ID.
// `perfbench -write-catalogue <path>` evaluates every entry once and writes
// the expected virtual-time results, by ID, to catalogue.json; rewrite it
// when the definition changes or a model change is intended, and say which
// results moved.

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/bench"
	"repro/internal/spec"
)

const (
	kib = int64(1) << 10
	mib = int64(1) << 20
)

// bulkBytesCells: Fig 3/4-style latency and bandwidth cells at 256 KiB-4 MiB
// for every backend, native and UNICONN, intra- and inter-node, plus the
// 64-rank allreduce at 256 KiB-1 MiB. Iteration counts are cut so a cell
// takes tens of milliseconds; the payload sizes, which decide the host
// cost, are the paper's.
func bulkBytesCells() []Cell {
	var cells []Cell
	libs := []struct{ backend, api string }{{"MPI", "Host"}, {"GPUCCL", "Host"}, {"GPUSHMEM", "Device"}}
	for _, lib := range libs {
		for _, native := range []bool{true, false} {
			for _, inter := range []bool{false, true} {
				for _, b := range []int64{256 * kib, mib, 4 * mib} {
					flavour, path := flavourName(native), pathName(inter)
					base := Cell{Backend: lib.backend, API: lib.api, Native: native, Inter: inter, Bytes: b, Shards: -1}
					lat, bw := base, base
					lat.ID = fmt.Sprintf("lat/%s/%s/%s/%dKiB", lib.backend, flavour, path, b/kib)
					lat.Kind, lat.Iters, lat.Warmup = "latency", 20, 2
					bw.ID = fmt.Sprintf("bw/%s/%s/%s/%dKiB", lib.backend, flavour, path, b/kib)
					bw.Kind, bw.Iters, bw.Warmup, bw.Window = "bandwidth", 2, 1, 16
					cells = append(cells, lat, bw)
				}
			}
		}
	}
	for _, b := range []int64{256 * kib, 512 * kib, mib} {
		cells = append(cells, Cell{ID: fmt.Sprintf("ar/r64/%dKiB", b/kib), Kind: "allreduce",
			Ranks: 64, Bytes: b, Iters: 2, Warmup: 1, Shards: -1})
	}
	return cells
}

// manyRanksCells: MPI allreduce at 256-1024 ranks with 8-512 B vectors on
// flat, fat-tree and dragonfly fabrics, each on the serial engine and on 2
// shards, plus two functional cells that verify the reduction.
func manyRanksCells() []Cell {
	var cells []Cell
	grid := []struct {
		ranks int
		bytes []int64
	}{{256, []int64{8, 64, 512}}, {512, []int64{8}}, {1024, []int64{8}}}
	for _, g := range grid {
		for _, b := range g.bytes {
			for _, topo := range []string{"flat", "fattree", "dragonfly"} {
				for _, shards := range []int{-1, 2} {
					cells = append(cells, Cell{ID: fmt.Sprintf("ar/r%d/%dB/%s/%s", g.ranks, b, topo, engineName(shards)),
						Kind: "allreduce", Ranks: g.ranks, Bytes: b, Topology: topo, Shards: shards,
						Iters: 1, Warmup: 1})
				}
			}
		}
	}
	for _, shards := range []int{-1, 2} {
		cells = append(cells, Cell{ID: "ar/r256/512B/flat/" + engineName(shards) + "/functional",
			Kind: "allreduce", Ranks: 256, Bytes: 512, Topology: "flat", Shards: shards,
			Iters: 1, Warmup: 1, Compute: true})
	}
	return cells
}

func flavourName(native bool) string {
	if native {
		return "native"
	}
	return "uniconn"
}

func pathName(inter bool) string {
	if inter {
		return "inter"
	}
	return "intra"
}

func engineName(shards int) string {
	if shards < 0 {
		return "serial"
	}
	return fmt.Sprintf("shards%d", shards)
}

// solverAppsCells: Fig 5-style modeled Jacobi at 4-64 GPUs over every
// variant and launch mode, Fig 6-style CG on the Serena- and Queen-like
// matrices at 8 GPUs including the no-Allgatherv ablation, and small
// functional runs of both checked against the serial solvers.
func solverAppsCells() []Cell {
	type variant struct{ name, backend, mode string }
	jv := []variant{
		{"MPI-Native", "", ""}, {"Uniconn", "MPI", "PureHost"},
		{"GPUCCL-Native", "", ""}, {"Uniconn", "GPUCCL", "PureHost"},
		{"GPUSHMEM-Host-Native", "", ""}, {"Uniconn", "GPUSHMEM", "PureHost"},
		{"GPUSHMEM-Device-Native", "", ""}, {"Uniconn", "GPUSHMEM", "PureDevice"},
		{"Uniconn", "GPUSHMEM", "PartialDevice"},
	}
	label := func(v variant) string {
		if v.backend == "" {
			return v.name
		}
		return v.name + "-" + v.backend + "-" + v.mode
	}
	var cells []Cell
	for _, n := range []int{4, 8, 16, 32, 64} {
		for _, v := range jv {
			cells = append(cells, Cell{ID: fmt.Sprintf("jacobi/g%d/%s", n, label(v)), Kind: "jacobi",
				Ranks: n, Grid: 4096, Iters: 20, Warmup: 2, Variant: v.name, Backend: v.backend, Mode: v.mode})
		}
	}
	cv := []struct {
		variant
		noAg bool
	}{
		{variant{"MPI-Native", "", ""}, false}, {variant{"Uniconn", "MPI", "PureHost"}, false},
		{variant{"GPUCCL-Native", "", ""}, false}, {variant{"Uniconn", "GPUCCL", "PureHost"}, false},
		{variant{"MPI-Native", "", ""}, true}, {variant{"GPUCCL-Native", "", ""}, true},
		{variant{"GPUSHMEM-Host-Native", "", ""}, false}, {variant{"Uniconn", "GPUSHMEM", "PureHost"}, false},
		{variant{"GPUSHMEM-Device-Native", "", ""}, false}, {variant{"Uniconn", "GPUSHMEM", "PureDevice"}, false},
	}
	for _, m := range []string{"serena", "queen"} {
		for _, v := range cv {
			id := fmt.Sprintf("cg/%s/%s", m, label(v.variant))
			if v.noAg {
				id += "/no-allgatherv"
			}
			cells = append(cells, Cell{ID: id, Kind: "cg", Ranks: 8, Matrix: m, Iters: 10,
				Variant: v.name, Backend: v.backend, Mode: v.mode, NoAllgatherv: v.noAg, Shards: -1})
		}
	}
	functional := []variant{{"MPI-Native", "", ""}, {"Uniconn", "GPUCCL", "PureHost"}, {"Uniconn", "GPUSHMEM", "PureDevice"}}
	for _, v := range functional {
		cells = append(cells,
			Cell{ID: "jacobi/g4/" + label(v) + "/functional", Kind: "jacobi", Ranks: 4, Grid: 64,
				Iters: 20, Warmup: 5, Variant: v.name, Backend: v.backend, Mode: v.mode, Compute: true},
			Cell{ID: "cg/laplace/" + label(v) + "/functional", Kind: "cg", Ranks: 4, Matrix: "laplace",
				Iters: 5, Variant: v.name, Backend: v.backend, Mode: v.mode, Compute: true, Shards: -1})
	}
	return cells
}

// serveQueries: the what-if catalogue — net latency and bandwidth,
// fault-degraded net cells, and allreduce cells. Iteration counts and
// sizes are cut so a miss simulates in a few milliseconds: the misses then
// load the service in bursts, not for whole stretches of the run.
func serveQueries() []Query {
	var qs []Query
	add := func(id string, s spec.Spec) { qs = append(qs, Query{ID: id, Spec: s}) }
	for _, be := range []string{"MPI", "GPUCCL", "GPUSHMEM"} {
		for _, b := range []int64{8, kib, 64 * kib} {
			for _, inter := range []bool{false, true} {
				for _, native := range []bool{true, false} {
					add(fmt.Sprintf("lat/%s/%s/%s/%dB", be, flavourName(native), pathName(inter), b),
						spec.Spec{Workload: spec.WorkloadNetLatency, Backend: be, Bytes: b,
							Inter: inter, Native: native, Iters: 50, Warmup: 5})
				}
			}
		}
		for _, b := range []int64{8 * kib, 64 * kib} {
			for _, inter := range []bool{false, true} {
				add(fmt.Sprintf("bw/%s/native/%s/%dB", be, pathName(inter), b),
					spec.Spec{Workload: spec.WorkloadNetBandwidth, Backend: be, Bytes: b,
						Inter: inter, Native: true, Iters: 5, Warmup: 1, Window: 16})
			}
		}
	}
	for _, sev := range []float64{0.25, 0.5, 0.75} {
		add(fmt.Sprintf("lat/degrade%.2f", sev), spec.Spec{Workload: spec.WorkloadNetLatency, Bytes: 4 * kib,
			Inter: true, Iters: 50, Warmup: 5, FaultMode: spec.FaultDegrade, Severity: sev})
		add(fmt.Sprintf("bw/degrade%.2f", sev), spec.Spec{Workload: spec.WorkloadNetBandwidth, Bytes: 64 * kib,
			Inter: true, Iters: 5, Warmup: 1, Window: 16, FaultMode: spec.FaultDegrade, Severity: sev})
	}
	for seed := uint64(1); seed <= 3; seed++ {
		add(fmt.Sprintf("lat/faults-seed%d", seed), spec.Spec{Workload: spec.WorkloadNetLatency, Bytes: 4 * kib,
			Inter: true, Iters: 50, Warmup: 5, FaultMode: spec.FaultGenerate, Severity: 0.5, Seed: seed})
		add(fmt.Sprintf("bw/faults-seed%d", seed), spec.Spec{Workload: spec.WorkloadNetBandwidth, Bytes: 64 * kib,
			Inter: true, Iters: 5, Warmup: 1, Window: 16, FaultMode: spec.FaultGenerate, Severity: 0.5, Seed: seed})
	}
	for _, r := range []int{8, 16, 32} {
		for _, b := range []int64{8, 4 * kib} {
			for _, topo := range []string{"flat", "fattree"} {
				add(fmt.Sprintf("ar/r%d/%dB/%s", r, b, topo), spec.Spec{Workload: spec.WorkloadAllreduce,
					Ranks: r, Bytes: b, Topology: topo, Iters: 2, Warmup: 1})
			}
		}
	}
	return qs
}

// writeCatalogue evaluates every catalogue entry and writes the expected
// results, by workload and entry ID, to path.
func writeCatalogue(path string) error {
	cat := defineCatalogue()
	for _, w := range batchWorkloads {
		cells := cat.cells(w)
		in, err := prepareInputs(cells)
		if err != nil {
			return err
		}
		for i := range cells {
			out, _, err := runCell(&cells[i], in, nil)
			if err != nil {
				return fmt.Errorf("cell %s: %w", cells[i].ID, err)
			}
			cells[i].Expect = out.Virt
		}
	}
	for i := range cat.Queries {
		q := &cat.Queries[i]
		if err := q.Spec.Validate(); err != nil {
			return fmt.Errorf("query %s: %w", q.ID, err)
		}
		body, _, err := bench.EvalSpec(q.Spec, bench.EvalOptions{})
		if err != nil {
			return fmt.Errorf("query %s: %w", q.ID, err)
		}
		res, err := bench.DecodeResult(body)
		if err != nil {
			return fmt.Errorf("query %s: %w", q.ID, err)
		}
		q.Expect = res.Value
	}
	m, err := cat.expects()
	if err != nil {
		return err
	}
	want := map[string]map[string]float64{}
	for w, entries := range m {
		want[w] = map[string]float64{}
		for id, p := range entries {
			want[w][id] = *p
		}
	}
	b, err := json.MarshalIndent(want, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
