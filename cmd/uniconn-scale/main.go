// uniconn-scale produces the rank-scaling curves behind BENCH_scale.json:
// one allreduce cell per (topology, algorithm, rank count), timed in virtual
// time, comparing the flat single-hop network against fat-tree and dragonfly
// switch fabrics and the flat-ring allreduce against the hierarchical
// (SMP-aware) algorithm.
//
// The flat-ring curve is capped separately (-ring-max-ranks, default 1024):
// the ring's 2(n-1) serialized steps make its wall-clock cost quadratic in
// total messages at 4096 ranks, while its virtual-time trend is already
// decided by 1024.
//
// -live serves the live telemetry endpoints (/metrics /healthz /debug/runs
// /debug/flight) — useful because the big cells take minutes of wall clock
// and /debug/runs carries an ETA. A SIGINT flushes the completed curves to
// the -out JSON (marked partial) before exiting.
//
// Usage:
//
//	uniconn-scale                                  # 64..4096, write BENCH_scale.json
//	uniconn-scale -bytes 262144 -max-ranks 1024 -out /tmp/scale.json
//	uniconn-scale -live 127.0.0.1:9187
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/fabric"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/spec"
	"repro/internal/telemetry"
)

// scalePoint is one (ranks, time) sample of a curve.
type scalePoint struct {
	Ranks     int     `json:"ranks"`
	Nodes     int     `json:"nodes"`
	PerIterNS int64   `json:"per_iter_ns"`
	PerIterUS float64 `json:"per_iter_us"`
	Seconds   float64 `json:"wall_seconds"`
}

// scaleCurve is one topology x algorithm sweep over the rank counts.
type scaleCurve struct {
	Topology string       `json:"topology"`
	Resolved string       `json:"resolved"`
	Alg      string       `json:"alg"`
	Points   []scalePoint `json:"points"`
}

type scaleJSON struct {
	Description string       `json:"description"`
	Host        scaleHost    `json:"host"`
	Machine     string       `json:"machine"`
	Bytes       int64        `json:"bytes"`
	Iters       int          `json:"iters"`
	Shards      int          `json:"shards"`
	RingCap     int          `json:"ring_max_ranks"`
	RingCapNote string       `json:"ring_cap_note"`
	Curves      []scaleCurve `json:"curves"`
	Seconds     float64      `json:"total_seconds"`
}

type scaleHost struct {
	NumCPU     int `json:"num_cpu"`
	GOMAXPROCS int `json:"gomaxprocs"`
}

// kindLabel is the short curve label of a topology ("flat", "fattree",
// "dragonfly"); the resolved description (fattree(k=8), ...) lands in the
// JSON separately once a run has sized the fabric.
func kindLabel(tc fabric.TopologyConfig) string {
	switch tc.Kind {
	case fabric.TopoFatTree:
		return "fattree"
	case fabric.TopoDragonfly:
		return "dragonfly"
	default:
		return "flat"
	}
}

func main() {
	common := spec.Common(flag.CommandLine)
	bytes := flag.Int64("bytes", 64<<10, "allreduce vector size per rank (multiple of 8)")
	iters := flag.Int("iters", 2, "timed iterations per cell")
	maxRanks := flag.Int("max-ranks", 4096, "largest rank count of the sweep")
	ringMax := flag.Int("ring-max-ranks", 1024, "largest rank count of the flat-ring curve")
	out := flag.String("out", "BENCH_scale.json", "output path")
	topoFlag := spec.TopologyListFlag(flag.CommandLine, "flat,fattree,dragonfly")
	flag.Parse()

	common.ApplyEnv()
	m, err := common.Model()
	if err != nil {
		log.Fatal(err)
	}
	topologies, err := spec.ParseTopologyList(*topoFlag)
	if err != nil {
		log.Fatal(err)
	}
	shards := common.Shards

	var ranks []int
	for r := 64; r <= *maxRanks; r *= 4 {
		ranks = append(ranks, r)
	}

	type curveSpec struct {
		label string
		topo  fabric.TopologyConfig
		alg   mpi.AllreduceAlg
		cap   int
	}
	// Hierarchical curves for every selected topology, then ring curves for
	// the flat/fat-tree ones (the ring maps poorly onto dragonfly groups and
	// its trend is already fixed by the cheaper fabrics). The default list
	// reproduces the classic five-curve sweep.
	var specs []curveSpec
	for _, tc := range topologies {
		specs = append(specs, curveSpec{kindLabel(tc), tc, mpi.AlgHierarchical, *maxRanks})
	}
	for _, tc := range topologies {
		if tc.Kind != fabric.TopoDragonfly {
			specs = append(specs, curveSpec{kindLabel(tc), tc, mpi.AlgRing, *ringMax})
		}
	}

	report := scaleJSON{
		Description: "Rank-scaling allreduce curves (cmd/uniconn-scale): flat vs fat-tree vs dragonfly inter-node topologies, hierarchical vs flat-ring algorithms, virtual time per iteration.",
		Host:        scaleHost{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)},
		Machine:     m.Name, Bytes: *bytes, Iters: *iters, Shards: *shards,
		RingCap:     *ringMax,
		RingCapNote: fmt.Sprintf("ring curves stop at %d ranks: the ring's 2(n-1) serialized steps are wall-clock quadratic in simulated messages, and its virtual-time trend is already fixed there", *ringMax),
	}
	// The scale sweep runs serially (one engine already saturates the host
	// with -shards), so the live run is reported cell by cell by this loop
	// rather than through the bench runner.
	live, closeLive, err := bench.StartLive(*common.Live, "scale")
	if err != nil {
		log.Fatal(err)
	}
	defer closeLive()
	totalCells := 0
	for _, sp := range specs {
		for _, r := range ranks {
			if r <= sp.cap {
				totalCells++
			}
		}
	}
	lr := live.StartRun("scale", totalCells, 1)

	// The interrupt handler flushes whatever curves are complete, so every
	// append to the report happens under mu.
	var mu sync.Mutex
	telemetry.OnInterrupt(func() {
		fmt.Fprintln(os.Stderr, "interrupted; flushing completed scale curves")
		live.WriteProgress(os.Stderr)
		mu.Lock()
		partial := report
		partial.Description += " [partial: interrupted by signal]"
		data, err := json.MarshalIndent(partial, "", "  ")
		mu.Unlock()
		if err == nil && os.WriteFile(*out, append(data, '\n'), 0o644) == nil {
			fmt.Fprintf(os.Stderr, "wrote partial %s\n", *out)
		}
	})

	total := time.Now()
	fmt.Printf("allreduce scaling on %s, %s per rank, %d iters, shards=%d\n",
		m.Name, bench.HumanBytes(*bytes), *iters, *shards)
	fmt.Printf("%-11s%-14s%8s%8s%14s%12s\n", "topology", "alg", "ranks", "nodes", "per-iter", "wall s")
	cellIdx := 0
	for si, sp := range specs {
		mu.Lock()
		report.Curves = append(report.Curves, scaleCurve{Topology: sp.label, Alg: sp.alg.String()})
		mu.Unlock()
		for _, r := range ranks {
			if r > sp.cap {
				continue
			}
			lr.CellStart(0, cellIdx, fmt.Sprintf("%s/%s/%d", sp.label, sp.alg, r))
			cfg := bench.ScaleConfig{
				Model: m, Topology: sp.topo, Ranks: r, Bytes: *bytes,
				Alg: sp.alg, Iters: *iters, Warmup: 1, Shards: *shards,
			}
			if live != nil {
				cfg.Metrics = metrics.New()
			}
			start := time.Now()
			d, run, err := bench.ScaleAllreduce(cfg)
			if err != nil {
				log.Fatalf("%s/%s ranks=%d: %v", sp.label, sp.alg, r, err)
			}
			if live != nil {
				live.AddSnapshot(cfg.Metrics.Snapshot())
			}
			lr.CellDone(0, cellIdx)
			cellIdx++
			resolved := run.Topology.Describe()
			wall := time.Since(start).Seconds()
			mu.Lock()
			report.Curves[si].Resolved = resolved
			report.Curves[si].Points = append(report.Curves[si].Points, scalePoint{
				Ranks: r, Nodes: m.NodesFor(r),
				PerIterNS: int64(d), PerIterUS: d.Micros(), Seconds: wall,
			})
			mu.Unlock()
			fmt.Printf("%-11s%-14s%8d%8d%14s%12.1f\n",
				resolved, sp.alg, r, m.NodesFor(r), d.String(), wall)
		}
	}
	lr.End()
	mu.Lock()
	report.Seconds = time.Since(total).Seconds()
	data, err := json.MarshalIndent(report, "", "  ")
	mu.Unlock()
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s (%.1fs)\n", *out, report.Seconds)
}
