package spec

// Shared CLI flag plumbing. Every sweep CLI (uniconn-netbench, -chaos,
// -scale, -prof, -serve) used to register its own copies of -machine,
// -workers, -shards, -live, and -topology, with hand-rolled parsing and —
// inevitably — drifting defaults (uniconn-scale shipped -shards defaulting
// to 1 while every other tool defaulted to the UNICONN_SHARDS environment).
// The helpers here are the single source of those flags: one usage string,
// one default, one resolution rule, everywhere.

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/machine"
)

// WorkersEnv is the environment variable overriding the sweep worker count
// (bench.WorkersEnv aliases it; unset or invalid falls back to GOMAXPROCS).
const WorkersEnv = "UNICONN_WORKERS"

// TopologyUsage is the shared -topology usage string.
const TopologyUsage = "inter-node network: flat|fattree[:k]|dragonfly[:p,a,h] " +
	"(fat-tree arity / dragonfly p,a,h auto-size when omitted)"

// CommonFlags holds the flags every sweep CLI shares.
type CommonFlags struct {
	Machine *string
	Workers *int
	Shards  *int
	Live    *string
}

// Common registers -machine, -workers, -shards, and -live on the flag set
// with the canonical defaults and usage strings. Call before flag.Parse.
func Common(fs *flag.FlagSet) *CommonFlags {
	return &CommonFlags{
		Machine: fs.String("machine", "Perlmutter", "Perlmutter|LUMI|MareNostrum5"),
		Workers: fs.Int("workers", 0,
			"sweep worker count; 0 = UNICONN_WORKERS env or GOMAXPROCS"),
		Shards: fs.Int("shards", 0,
			"engine shards per cell (parallel-in-virtual-time); 0 = UNICONN_SHARDS env or one shard; "+
				"results are bit-identical at every shard count"),
		Live: fs.String("live", "",
			"serve live telemetry HTTP on this address (host:port, :0 picks a port): "+
				"/metrics /healthz /debug/runs /debug/flight; stdout stays byte-identical"),
	}
}

// Model resolves the -machine flag.
func (c *CommonFlags) Model() (*machine.Model, error) {
	m := machine.ByName(*c.Machine)
	if m == nil {
		return nil, fmt.Errorf("unknown machine %q", *c.Machine)
	}
	return m, nil
}

// ApplyEnv publishes positive -workers/-shards values into the environment
// variables the runner and engine consult, the resolution rule every CLI
// shares: an explicit flag wins, otherwise the environment, otherwise the
// built-in default (GOMAXPROCS workers, one engine shard).
func (c *CommonFlags) ApplyEnv() {
	ApplyWorkersEnv(*c.Workers)
	if *c.Shards > 0 {
		os.Setenv(core.ShardsEnv, strconv.Itoa(*c.Shards))
	}
}

// ApplyWorkersEnv publishes a positive worker count into WorkersEnv (for
// CLIs like uniconn-serve that register -workers without the full common
// set); non-positive counts keep the environment as-is.
func ApplyWorkersEnv(n int) {
	if n > 0 {
		os.Setenv(WorkersEnv, strconv.Itoa(n))
	}
}

// TopologyFlag registers the shared single-topology -topology flag.
func TopologyFlag(fs *flag.FlagSet) *string {
	return fs.String("topology", "flat", TopologyUsage)
}

// TopologyListFlag registers a -topology flag that accepts a comma-separated
// list (ParseTopologyList), for CLIs that sweep topologies.
func TopologyListFlag(fs *flag.FlagSet, def string) *string {
	return fs.String("topology", def, TopologyUsage+"; accepts a comma-separated list")
}

// ParseTopologyList splits a comma-separated topology list, keeping numeric
// dragonfly parameters attached to their spec: "flat,fattree:4,dragonfly:1,2,2"
// is three topologies, not six. Topology names never start with a digit, so a
// purely numeric segment always continues the previous spec.
func ParseTopologyList(s string) ([]fabric.TopologyConfig, error) {
	var specs []string
	for _, seg := range strings.Split(s, ",") {
		seg = strings.TrimSpace(seg)
		if len(specs) > 0 && seg != "" && seg[0] >= '0' && seg[0] <= '9' {
			specs[len(specs)-1] += "," + seg
			continue
		}
		specs = append(specs, seg)
	}
	out := make([]fabric.TopologyConfig, 0, len(specs))
	for _, sp := range specs {
		tc, err := fabric.ParseTopology(sp)
		if err != nil {
			return nil, err
		}
		out = append(out, tc)
	}
	return out, nil
}
