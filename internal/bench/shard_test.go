package bench

// Shard-count determinism tests, mirroring the workers=1-vs-8 discipline of
// runner_test.go at the engine level: Shards is an execution hint, so the
// same cell run at any shard count must produce bit-identical virtual-time
// results. Every run is a sim.Group; shards=0 (the default) is the
// one-engine group, not a separate model.

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/spec"
)

// TestPublishedNumbersIgnoreShards pins the headline cells the figures and
// benchmarks publish — a 64-rank allreduce on each topology, and the MPI
// inter-node 1 MiB latency and bandwidth — to the same encoded result at
// shards 0, 1 and 4. These are the cells whose inter-node rendezvous and
// contended ports once timed differently on a separate serial engine.
func TestPublishedNumbersIgnoreShards(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second 64-rank cells")
	}
	t.Setenv(core.ShardsEnv, "")
	specs := []spec.Spec{
		{Workload: spec.WorkloadNetLatency, Inter: true, Bytes: 1 << 20},
		{Workload: spec.WorkloadNetBandwidth, Inter: true, Bytes: 1 << 20},
	}
	for _, topo := range []string{"flat", "fattree", "dragonfly"} {
		specs = append(specs, spec.Spec{Workload: spec.WorkloadAllreduce, Ranks: 64,
			Bytes: 64 << 10, Iters: 1, Warmup: 1, Topology: topo})
	}
	for _, base := range specs {
		var want []byte
		for _, shards := range []int{0, 1, 4} {
			s := base
			s.Shards = shards
			body, _, err := EvalSpec(s, EvalOptions{})
			if err != nil {
				t.Fatalf("%s shards %d: %v", s, shards, err)
			}
			if want == nil {
				want = body
			} else if !bytes.Equal(body, want) {
				t.Fatalf("%s: shards %d differs from shards 0:\n%s\n%s", s, shards, body, want)
			}
		}
	}
}

// runAllreduceCellShards launches a ranks-wide MPI allreduce cell at the
// given shard count and returns the finish time plus every rank's full
// result vector.
func runAllreduceCellShards(t *testing.T, shards, ranks, elems, iters int) (sim.Time, [][]float64) {
	t.Helper()
	out := make([][]float64, ranks)
	rep, err := core.Launch(core.Config{
		Model: machine.Perlmutter(), NGPUs: ranks,
		Backend: core.MPIBackend, Shards: shards,
	}, func(env *core.Env) {
		comm := env.MPIComm()
		p := env.Proc()
		send := gpu.AllocBuffer[float64](env.Device(), elems)
		recv := gpu.AllocBuffer[float64](env.Device(), elems)
		for i := range send.Data() {
			send.Data()[i] = float64(env.WorldRank()*7 + i)
		}
		for it := 0; it < iters; it++ {
			comm.Allreduce(p, send.Whole(), recv.Whole(), gpu.ReduceSum)
		}
		// Each rank writes only its own slot: race-free across shards.
		out[env.WorldRank()] = append([]float64(nil), recv.Data()...)
	})
	if err != nil {
		t.Fatalf("shards=%d: %v", shards, err)
	}
	return rep.End, out
}

// TestAllreduceCellShardsDeterministic is the engine-level acceptance
// check (run under -race in CI): a 64-rank allreduce cell must finish at
// the same virtual time with the same buffer contents at shards=1 and
// shards=4.
func TestAllreduceCellShardsDeterministic(t *testing.T) {
	const ranks, elems, iters = 64, 256, 5
	end1, out1 := runAllreduceCellShards(t, 1, ranks, elems, iters)
	end4, out4 := runAllreduceCellShards(t, 4, ranks, elems, iters)
	if end1 != end4 {
		t.Fatalf("finish time diverged: shards=1 %v, shards=4 %v", end1, end4)
	}
	for r := 0; r < ranks; r++ {
		for i := range out1[r] {
			if out1[r][i] != out4[r][i] {
				t.Fatalf("rank %d elem %d diverged: shards=1 %v, shards=4 %v",
					r, i, out1[r][i], out4[r][i])
			}
		}
	}
}

// TestAllreduceCellShardsRendezvous repeats the check with vectors past the
// ring/rendezvous threshold, covering the staged-payload conduit path.
func TestAllreduceCellShardsRendezvous(t *testing.T) {
	const ranks, elems, iters = 16, 16 << 10, 2
	end1, out1 := runAllreduceCellShards(t, 1, ranks, elems, iters)
	end4, out4 := runAllreduceCellShards(t, 4, ranks, elems, iters)
	if end1 != end4 {
		t.Fatalf("finish time diverged: shards=1 %v, shards=4 %v", end1, end4)
	}
	for r := 0; r < ranks; r++ {
		for i := range out1[r] {
			if out1[r][i] != out4[r][i] {
				t.Fatalf("rank %d elem %d diverged: shards=1 %v, shards=4 %v",
					r, i, out1[r][i], out4[r][i])
			}
		}
	}
}

// TestFigureSweepShardsDeterministic renders Fig 6 with the engine forced
// to shards=1 and shards=4 and asserts byte-identical output, mirroring
// TestFigureSweepDeterministic's workers discipline. Non-MPI cells run on
// one shard on both sides; the MPI cells exercise the real 1-vs-N contract.
func TestFigureSweepShardsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second figure sweep")
	}
	render := func(shards string) string {
		t.Setenv(WorkersEnv, "4")
		t.Setenv(core.ShardsEnv, shards)
		figs, err := RunFig6(Quick)
		if err != nil {
			t.Fatalf("RunFig6(shards=%s): %v", shards, err)
		}
		var sb strings.Builder
		for _, f := range figs {
			sb.WriteString(f.Render())
			sb.WriteByte('\n')
		}
		return sb.String()
	}
	one := render("1")
	four := render("4")
	if one != four {
		t.Fatalf("figure output diverged between shards=1 and shards=4:\n--- shards=1 ---\n%s\n--- shards=4 ---\n%s", one, four)
	}
}

// TestChaosSweepShardsDeterministic runs a soft-fault severity ramp at
// shards=1 and shards=2 (the inter-node chaos cell spans two nodes) and
// asserts identical points. Hard-fault plans run sharded too — their
// determinism is covered by TestRecoveryShardDeterminismSwitchedTopologies.
func TestChaosSweepShardsDeterministic(t *testing.T) {
	cfg := chaosConfig(chaosBackends[0].backend)
	severities := []float64{0, 0.25, 0.5, 0.75, 1}
	sweep := func(shards string) []ChaosPoint {
		t.Setenv(core.ShardsEnv, shards)
		pts, err := ChaosSweep(cfg, severities, nil)
		if err != nil {
			t.Fatalf("ChaosSweep(shards=%s): %v", shards, err)
		}
		return pts
	}
	one := sweep("1")
	two := sweep("2")
	if len(one) != len(two) {
		t.Fatalf("point counts diverged: %d vs %d", len(one), len(two))
	}
	for i := range one {
		if one[i] != two[i] {
			t.Fatalf("point %d diverged: shards=1 %+v, shards=2 %+v", i, one[i], two[i])
		}
	}
}
