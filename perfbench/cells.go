package main

// Batch cells: each runs one public entry point of the program and returns
// its virtual-time result.

import (
	"fmt"
	"math"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/solver/cg"
	"repro/internal/solver/jacobi"
	"repro/internal/sparse"
	"repro/internal/spec"
)

// matrixScale sizes the Serena- and Queen-like CG matrices (Fig 6's quick
// sweep uses 0.05).
const matrixScale = 0.02

// outcome is what a cell returns; a repeat of the cell must return the same.
type outcome struct {
	Virt  float64 // the catalogued quantity (see Cell.Expect)
	EndNs int64   // virtual end time of the whole run
	Check float64 // functional checksum or residual; 0 for modeled cells
}

// cellInputs is the state cells share: the machine model, the generated
// matrices, and the serial references of functional cells.
type cellInputs struct {
	model    *machine.Model
	matrices map[string]*sparse.CSR
	refs     map[string]float64 // cell ID → serial reference
}

// prepareInputs generates what the cells need: matrices every CG cell
// names, and serial references for the functional cells.
func prepareInputs(cells []Cell) (*cellInputs, error) {
	in := &cellInputs{model: machine.Perlmutter(), matrices: map[string]*sparse.CSR{}, refs: map[string]float64{}}
	for _, c := range cells {
		if c.Kind == "cg" && in.matrices[c.Matrix] == nil {
			m, err := generateMatrix(c.Matrix)
			if err != nil {
				return nil, err
			}
			in.matrices[c.Matrix] = m
		}
	}
	for _, c := range cells {
		if !c.Compute {
			continue
		}
		switch c.Kind {
		case "jacobi":
			in.refs[c.ID] = jacobi.RunSerial(c.Grid, c.Grid, c.Iters+c.Warmup)
		case "cg":
			in.refs[c.ID] = cg.RunSerial(in.matrices[c.Matrix], c.Iters)
		}
	}
	return in, nil
}

func generateMatrix(name string) (*sparse.CSR, error) {
	switch name {
	case "serena":
		return sparse.Serena().Generate(matrixScale), nil
	case "queen":
		return sparse.Queen4147().Generate(matrixScale), nil
	case "laplace":
		return sparse.Laplace3D(6, 6, 4), nil
	}
	return nil, fmt.Errorf("catalogue: unknown matrix %q", name)
}

// callName is the public entry point a cell calls (the child span's name).
func (c *Cell) callName() string {
	switch c.Kind {
	case "latency":
		return "bench.LatencyRun"
	case "bandwidth":
		return "bench.BandwidthRun"
	case "allreduce":
		return "bench.ScaleAllreduce"
	case "jacobi":
		return "jacobi.Run"
	case "cg":
		return "cg.Run"
	}
	return c.Kind
}

// errCheck is a functional result that disagrees with its serial reference.
type errCheck struct{ msg string }

func (e errCheck) Error() string { return e.msg }

// runCell runs the cell once and returns its outcome and host time of the
// entry-point call alone. reg, when non-nil, collects the run's counters.
func runCell(c *Cell, in *cellInputs, reg *metrics.Registry) (outcome, time.Duration, error) {
	backend, err := cellBackend(c.Backend)
	if err != nil {
		return outcome{}, 0, err
	}
	switch c.Kind {
	case "latency", "bandwidth":
		api := machine.APIHost
		if c.API == "Device" {
			api = machine.APIDevice
		}
		cfg := bench.NetConfig{Model: in.model, Backend: backend, API: api, Native: c.Native,
			Inter: c.Inter, Bytes: c.Bytes, Iters: c.Iters, Warmup: c.Warmup, Window: c.Window,
			Shards: c.Shards, Metrics: reg}
		start := time.Now()
		var v float64
		var rep core.Report
		if c.Kind == "latency" {
			var lat sim.Duration
			lat, rep, err = bench.LatencyRun(cfg)
			v = float64(lat)
		} else {
			v, rep, err = bench.BandwidthRun(cfg)
		}
		return outcome{Virt: v, EndNs: int64(rep.End)}, time.Since(start), err
	case "allreduce":
		topo, err := fabric.ParseTopology(orDefault(c.Topology, "flat"))
		if err != nil {
			return outcome{}, 0, err
		}
		cfg := bench.ScaleConfig{Model: in.model, Topology: topo, Ranks: c.Ranks, Bytes: c.Bytes,
			Alg: mpi.AlgAuto, Iters: c.Iters, Warmup: c.Warmup, Shards: c.Shards,
			Compute: c.Compute, Metrics: reg}
		start := time.Now()
		d, rep, err := bench.ScaleAllreduce(cfg)
		return outcome{Virt: float64(d), EndNs: int64(rep.End)}, time.Since(start), err
	case "jacobi":
		v, err := jacobiVariant(c.Variant)
		if err != nil {
			return outcome{}, 0, err
		}
		mode, err := launchMode(c.Mode)
		if err != nil {
			return outcome{}, 0, err
		}
		cfg := jacobi.Config{Model: in.model, NGPUs: c.Ranks, NX: c.Grid, NY: c.Grid,
			Iters: c.Iters, Warmup: c.Warmup, Compute: c.Compute, Variant: v,
			Backend: backend, Mode: mode, Metrics: reg}
		start := time.Now()
		res, err := jacobi.Run(cfg)
		took := time.Since(start)
		out := outcome{Virt: float64(res.PerIter), EndNs: int64(res.End), Check: res.Checksum}
		if err == nil && c.Compute {
			want := in.refs[c.ID]
			if math.Abs(res.Checksum-want) > 1e-3*math.Abs(want) {
				err = errCheck{fmt.Sprintf("checksum %v, serial reference %v", res.Checksum, want)}
			}
		}
		return out, took, err
	case "cg":
		v, err := cgVariant(c.Variant)
		if err != nil {
			return outcome{}, 0, err
		}
		mode, err := launchMode(c.Mode)
		if err != nil {
			return outcome{}, 0, err
		}
		cfg := cg.Config{Model: in.model, NGPUs: c.Ranks, Matrix: in.matrices[c.Matrix],
			Iters: c.Iters, Compute: c.Compute, DisableAllgatherv: c.NoAllgatherv,
			Variant: v, Backend: backend, Mode: mode, Shards: c.Shards, Metrics: reg}
		start := time.Now()
		res, err := cg.Run(cfg)
		took := time.Since(start)
		out := outcome{Virt: float64(res.Total), EndNs: int64(res.End), Check: res.Residual}
		if err == nil && c.Compute {
			want := in.refs[c.ID]
			if rel := math.Abs(res.Residual-want) / (math.Abs(want) + 1e-30); rel > 1e-9 {
				err = errCheck{fmt.Sprintf("residual %v, serial reference %v", res.Residual, want)}
			}
		}
		return out, took, err
	}
	return outcome{}, 0, fmt.Errorf("cell %s: unknown kind %q", c.ID, c.Kind)
}

func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}

func cellBackend(name string) (core.BackendID, error) {
	return spec.ParseBackend(orDefault(name, "MPI"))
}

func launchMode(name string) (core.LaunchMode, error) {
	for _, m := range []core.LaunchMode{core.PureHost, core.PartialDevice, core.PureDevice} {
		if m.String() == orDefault(name, core.PureHost.String()) {
			return m, nil
		}
	}
	return 0, fmt.Errorf("unknown launch mode %q", name)
}

func jacobiVariant(name string) (jacobi.Variant, error) {
	for v := jacobi.NativeMPI; v <= jacobi.Uniconn; v++ {
		if v.String() == name {
			return v, nil
		}
	}
	return 0, fmt.Errorf("unknown jacobi variant %q", name)
}

func cgVariant(name string) (cg.Variant, error) {
	for v := cg.NativeMPI; v <= cg.Uniconn; v++ {
		if v.String() == name {
			return v, nil
		}
	}
	return 0, fmt.Errorf("unknown cg variant %q", name)
}
