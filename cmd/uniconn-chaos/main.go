// uniconn-chaos sweeps fault severity over the network microbenchmarks and
// prints per-backend latency/bandwidth degradation curves. The injected
// plans come from internal/faults: either a uniform degradation of the
// benchmarked path (-degrade, the default) or a randomized but
// seed-deterministic plan of link faults, NIC stall windows, and slow ranks
// (-generate). Backends and severities fan out over the deterministic
// parallel runner (internal/bench.Sweep); identical flags always print
// identical numbers at any UNICONN_WORKERS setting.
//
// With -recover the tool switches to hard-fault mode: plans from
// faults.GenerateHard additionally crash ranks (severity >= 0.5) and kill
// links — and, on a switched -topology, an aggregation switch or global
// channel (severity >= 0.5/0.75) — under an -ranks-GPU iterative allreduce
// workload, and the sweep reports whether the survivors completed by
// revoking and shrinking the communicator, plus the failure-detection and
// recovery latencies and the adaptive-routing failover count. -topology
// accepts a comma-separated list in this mode, one table section (and one
// BENCH JSON entry) per topology; -shards runs the hard-fault cells on that
// many engine shards, bit-identical at every shard count. -benchjson
// records the recovery sweep's wall clock and completion rate.
//
// -live serves the live telemetry endpoints (/metrics /healthz /debug/runs
// /debug/flight) while the sweep runs, and -flight retains a bounded
// per-shard event history that is dumped to stderr (and the -benchjson
// points) when a cell faults. Neither changes a byte of stdout. A SIGINT
// flushes the completed portion of the sweep before exiting.
//
// Usage:
//
//	uniconn-chaos                                # Perlmutter, inter-node, degrade ramp
//	uniconn-chaos -machine LUMI -bytes 1048576
//	uniconn-chaos -generate -seed 7 -severities 0,0.5,1
//	uniconn-chaos -recover -ranks 8 -benchjson BENCH_recovery.json
//	uniconn-chaos -recover -topology fattree -shards 4
//	uniconn-chaos -recover -topology flat,fattree,dragonfly:1,2,2
//	uniconn-chaos -recover -live 127.0.0.1:9187 -flight 256
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/telemetry"
)

func parseSeverities(s string) ([]float64, error) {
	var out []float64
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, fmt.Errorf("bad severity %q: %w", f, err)
		}
		if v < 0 {
			return nil, fmt.Errorf("severity %g is negative", v)
		}
		out = append(out, v)
	}
	return out, nil
}

// backendChoice pairs a display label with a backend id.
type backendChoice struct {
	label   string
	backend core.BackendID
}

// recoveryJSON is the -benchjson record of one recovery sweep: per-topology
// survival curves, each holding the per-backend severity ramps.
type recoveryJSON struct {
	Description string                `json:"description"`
	Host        recoveryHost          `json:"host"`
	Machine     string                `json:"machine"`
	Ranks       int                   `json:"ranks"`
	Seed        uint64                `json:"seed"`
	Shards      int                   `json:"shards"`
	Severities  []float64             `json:"severities"`
	Topologies  []recoveryTopologyRun `json:"topologies"`
	Seconds     float64               `json:"total_seconds"`
}

type recoveryHost struct {
	NumCPU     int `json:"num_cpu"`
	GOMAXPROCS int `json:"gomaxprocs"`
}

type recoveryTopologyRun struct {
	// Topology is the resolved description ("flat", "fattree(k=4)", ...).
	Topology string               `json:"topology"`
	Backends []recoveryBackendRun `json:"backends"`
}

type recoveryBackendRun struct {
	Backend        string                `json:"backend"`
	Seconds        float64               `json:"seconds"`
	CompletionRate float64               `json:"completion_rate"`
	Points         []bench.RecoveryPoint `json:"points"`
}

// recoveryMode runs the hard-fault severity sweep per topology and backend,
// prints one table section per topology, and optionally records wall-clock +
// completion-rate JSON. The printed table carries virtual-time quantities
// only, so its bytes are identical at every -shards count and with
// -live on or off (the CI determinism gates compare them with cmp). With
// -flight > 0 each faulted cell's flight-recorder post-mortem lands in the
// JSON and on stderr; a SIGINT flushes the completed portion of the report.
func recoveryMode(m *machine.Model, backends []backendChoice, severities []float64, ranks int, seed uint64, benchJSON string, topologies []fabric.TopologyConfig, shards, flightDepth int) error {
	fmt.Printf("recovery sweep on %s, %d ranks, seed %d (crashes from severity 0.5, link/switch faults from 0.5-0.75)\n",
		m.Name, ranks, seed)
	report := recoveryJSON{
		Description: "Recovery-aware chaos sweep (cmd/uniconn-chaos -recover): iterative allreduce under hard-fault plans; completion via communicator Revoke+Shrink, per-topology survival curves with adaptive-routing failovers.",
		Host:        recoveryHost{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)},
		Machine:     m.Name, Ranks: ranks, Seed: seed, Shards: shards, Severities: severities,
	}
	// The interrupt handler snapshots the report mid-sweep, so every append
	// below happens under mu.
	var mu sync.Mutex
	telemetry.OnInterrupt(func() {
		fmt.Fprintln(os.Stderr, "interrupted; flushing completed recovery results")
		if live := bench.Progress(); live != nil {
			live.WriteProgress(os.Stderr)
			fmt.Fprint(os.Stderr, live.MetricsSnapshot().Render())
		}
		if benchJSON == "" {
			return
		}
		mu.Lock()
		partial := report
		partial.Description += " [partial: interrupted by signal]"
		data, err := json.MarshalIndent(partial, "", "  ")
		mu.Unlock()
		if err == nil && os.WriteFile(benchJSON, append(data, '\n'), 0o644) == nil {
			fmt.Fprintf(os.Stderr, "wrote partial %s\n", benchJSON)
		}
	})
	total := time.Now()
	for ti, tc := range topologies {
		// Clone the model so the sweep's generated plans and launched runs
		// agree on the topology. Resolve auto-sized parameters up front so
		// the section header names the actual fabric (fattree(k=4), not k=0).
		mt := *m
		mt.Topology = tc
		resolved := fabric.ResolveTopology(tc, m.NodesFor(ranks))
		mu.Lock()
		report.Topologies = append(report.Topologies, recoveryTopologyRun{Topology: resolved.Describe()})
		mu.Unlock()
		fmt.Printf("\ntopology %s\n", resolved.Describe())
		fmt.Printf("%-10s%10s%9s%11s%11s%12s%11s%13s%14s%12s\n",
			"backend", "severity", "crashes", "survivors", "completed", "recoveries", "failovers", "detect lat", "recovery lat", "end")
		for _, b := range backends {
			bench.SetProgressLabel("chaos-recover " + resolved.Describe() + " " + b.label)
			start := time.Now()
			points, err := bench.RecoverySweepOpts(&mt, b.backend, ranks, severities, seed,
				bench.RecoveryOpts{FlightDepth: flightDepth, Live: bench.Progress()})
			if err != nil {
				return fmt.Errorf("%s/%s: %w", tc.Describe(), b.label, err)
			}
			completed := 0
			for _, p := range points {
				done := "no"
				if p.Completed {
					done = "yes"
					completed++
				}
				if p.Err != "" {
					done = "ERR"
				}
				fmt.Printf("%-10s%10.2f%9d%11d%11s%12d%11d%13v%14v%12v\n",
					b.label, p.Severity, p.Crashes, p.Survivors, done, p.Recoveries,
					p.Failovers, p.DetectLatency, p.RecoveryLatency, sim.Duration(p.End))
				if p.Err != "" {
					fmt.Printf("  %s severity %.2f error: %s\n", b.label, p.Severity, p.Err)
				}
				// Post-mortems are diagnostics, not results: stderr only,
				// in deterministic point order.
				if p.FlightDump != "" {
					fmt.Fprintf(os.Stderr, "post-mortem %s/%s severity %.2f:\n%s",
						resolved.Describe(), b.label, p.Severity, p.FlightDump)
				}
			}
			mu.Lock()
			report.Topologies[ti].Backends = append(report.Topologies[ti].Backends, recoveryBackendRun{
				Backend:        b.label,
				Seconds:        time.Since(start).Seconds(),
				CompletionRate: float64(completed) / float64(len(points)),
				Points:         points,
			})
			mu.Unlock()
		}
	}
	mu.Lock()
	report.Seconds = time.Since(total).Seconds()
	mu.Unlock()
	if benchJSON != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(benchJSON, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", benchJSON)
	}
	return nil
}

func main() {
	common := spec.Common(flag.CommandLine)
	inter := flag.Bool("inter", true, "benchmark across two nodes")
	bytes := flag.Int64("bytes", 8192, "message size (multiple of 8)")
	sevFlag := flag.String("severities", "0,0.25,0.5,0.75,1", "comma-separated severity sweep")
	generate := flag.Bool("generate", false,
		"randomized seed-deterministic plans instead of uniform path degradation")
	seed := flag.Uint64("seed", 42, "fault-plan seed (with -generate)")
	recover := flag.Bool("recover", false,
		"recovery mode: hard-fault plans (rank crashes, dead links) under an iterative allreduce; "+
			"reports completion and recovery latency per severity")
	ranks := flag.Int("ranks", 8, "rank count of the recovery workload (with -recover)")
	benchJSON := flag.String("benchjson", "",
		"write recovery-sweep wall-clock and completion-rate JSON here (with -recover)")
	showMetrics := flag.Bool("metrics", false,
		"collect per-severity metrics and print the merged snapshot per backend (degrade/generate modes)")
	profilePath := flag.String("profile", "",
		"write a Chrome trace-event file of the profiled severity cells here (degrade/generate modes)")
	topoFlag := spec.TopologyListFlag(flag.CommandLine, "flat")
	flightDepth := flag.Int("flight", 0,
		"retain the last N engine events per shard and dump them on faults (with -recover); "+
			"post-mortems go to stderr and the -benchjson points")
	flag.Parse()

	common.ApplyEnv()

	live, closeLive, err := bench.StartLive(*common.Live, "chaos")
	if err != nil {
		log.Fatal(err)
	}
	defer closeLive()

	m, err := common.Model()
	if err != nil {
		log.Fatal(err)
	}
	topologies, err := spec.ParseTopologyList(*topoFlag)
	if err != nil {
		log.Fatal(err)
	}
	severities, err := parseSeverities(*sevFlag)
	if err != nil {
		log.Fatal(err)
	}

	backends := []backendChoice{{"MPI", core.MPIBackend}, {"GPUCCL", core.GpucclBackend}}
	if m.HasGPUSHMEM {
		backends = append(backends, backendChoice{"GPUSHMEM", core.GpushmemBackend})
	}

	if *recover {
		switched := false
		for _, tc := range topologies {
			if tc.Kind != fabric.TopoFlat {
				switched = true
			}
		}
		ranksSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "ranks" {
				ranksSet = true
			}
		})
		if switched && !ranksSet {
			// The 8-rank default spans two nodes — too few for redundant
			// fat-tree pods or >= 3 dragonfly groups. 32 ranks on a 4-GPU
			// machine is 8 nodes: a k=4 fat-tree with spare aggregations,
			// and four dragonfly:1,2,2 groups with a Valiant escape.
			*ranks = 32
		}
		if err := recoveryMode(m, backends, severities, *ranks, *seed, *benchJSON, topologies, *common.Shards, *flightDepth); err != nil {
			log.Fatal(err)
		}
		return
	}
	if len(topologies) != 1 {
		log.Fatalf("topology lists are for -recover; pick one of %q", *topoFlag)
	}
	if tc := topologies[0]; tc.Kind != fabric.TopoFlat {
		// Clone the model so the topology applies to every workload the tool
		// launches on it.
		m2 := *m
		m2.Topology = tc
		m = &m2
	}

	where, mode := "intra-node", "degrade ramp"
	if *inter {
		where = "inter-node"
	}
	if *generate {
		mode = fmt.Sprintf("generated plan (seed %d)", *seed)
		bench.SetProgressLabel("chaos-generate")
	} else {
		bench.SetProgressLabel("chaos-degrade")
	}
	telemetry.OnInterrupt(func() {
		fmt.Fprintln(os.Stderr, "interrupted mid-sweep")
		if live != nil {
			live.WriteProgress(os.Stderr)
			fmt.Fprint(os.Stderr, live.MetricsSnapshot().Render())
		}
	})
	fmt.Printf("chaos sweep on %s (%s), %d B, %s\n", m.Name, where, *bytes, mode)
	fmt.Printf("%-10s%10s%14s%10s%14s%10s%12s\n",
		"backend", "severity", "latency", "lat x", "bw GB/s", "bw frac", "transfers")

	profiled := *showMetrics || *profilePath != ""
	// The live metrics endpoint needs per-cell registries even when no
	// -metrics/-profile output was asked for; collect silently in that case
	// (cell profiles feed the tracker and nothing else).
	collect := profiled || live != nil

	// Each backend's severity ramp is an independent cell; the ramp itself
	// fans out again inside ChaosSweep. Rendered blocks (and, when profiling,
	// the per-severity cell profiles) are collected by backend index, so the
	// output prints in the fixed backend order.
	type backendOut struct {
		block string
		profs []bench.CellProfile
	}
	blocks, err := bench.Sweep(len(backends), func(i int) (backendOut, error) {
		b := backends[i]
		cfg := bench.NetConfig{Model: m, Backend: b.backend, API: machine.APIHost,
			Native: true, Inter: *inter, Bytes: *bytes}
		var planFor func(float64) *faults.Plan
		if *generate {
			fc := cfg.Model.FabricConfig(2)
			if *inter {
				mm := *m
				mm.GPUsPerNode, mm.NICsPerNode = 1, 1
				fc = mm.FabricConfig(2)
			}
			planFor = func(s float64) *faults.Plan {
				return faults.Generate(*seed, s, fc, sim.Second)
			}
		}
		var out backendOut
		var points []bench.ChaosPoint
		var err error
		if collect {
			points, out.profs, err = bench.ChaosSweepProfiled(cfg, severities, planFor)
			for pi := range out.profs {
				out.profs[pi].Label = b.label + "/" + out.profs[pi].Label
			}
		} else {
			points, err = bench.ChaosSweep(cfg, severities, planFor)
		}
		if err != nil {
			return out, fmt.Errorf("%s: %w", b.label, err)
		}
		for _, cp := range out.profs {
			live.AddSnapshot(cp.Metrics) // nil-safe
		}
		var baseLat sim.Duration
		var baseBW float64
		if len(points) > 0 {
			baseLat, baseBW = points[0].Latency, points[0].Bandwidth
		}
		var sb strings.Builder
		for _, p := range points {
			fmt.Fprintf(&sb, "%-10s%10.2f%14v%9.2fx%14.2f%10.2f%12d\n",
				b.label, p.Severity, p.Latency, p.LatencyFactor(baseLat),
				p.Bandwidth/1e9, p.BandwidthFactor(baseBW), p.Transfers)
		}
		out.block = sb.String()
		return out, nil
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, b := range blocks {
		fmt.Print(b.block)
	}
	if profiled {
		var all []bench.CellProfile
		for _, b := range blocks {
			all = append(all, b.profs...)
		}
		rp := &bench.RunProfile{
			Title: fmt.Sprintf("chaos %s (%d cells)", m.Name, len(all)),
			Cells: all,
		}
		if *showMetrics {
			for bi, b := range blocks {
				brp := bench.RunProfile{Cells: b.profs}
				fmt.Printf("\n%s merged metrics (%d severities):\n%s",
					backends[bi].label, len(b.profs), brp.Merged().Render())
			}
		}
		if *profilePath != "" {
			f, err := os.Create(*profilePath)
			if err != nil {
				log.Fatal(err)
			}
			if err := rp.WriteChromeTrace(f); err != nil {
				f.Close()
				log.Fatal(err)
			}
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("wrote %s\n", *profilePath)
		}
	}
}
