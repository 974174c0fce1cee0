package main

// The input catalogue and the seeded generators that draw each run's inputs
// from it. catalogue_gen.go defines every cell and query a workload may run;
// catalogue.json holds, by entry ID, the virtual-time result the program
// produced for each when it was last written (-write-catalogue). A run draws
// its inputs from the catalogue with the seed; the program under test sees
// only those inputs.

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/spec"
)

//go:embed catalogue.json
var expectJSON []byte

// Cell is one batch cell: a call into a public entry point of the program
// with fixed arguments. Zero fields keep the entry point's defaults.
type Cell struct {
	ID string `json:"id"`
	// Kind selects the entry point: latency, bandwidth (bench.LatencyRun /
	// BandwidthRun), allreduce (bench.ScaleAllreduce), jacobi (jacobi.Run)
	// or cg (cg.Run).
	Kind     string `json:"kind"`
	Backend  string `json:"backend,omitempty"` // MPI | GPUCCL | GPUSHMEM
	API      string `json:"api,omitempty"`     // Host | Device
	Native   bool   `json:"native,omitempty"`
	Inter    bool   `json:"inter,omitempty"`
	Bytes    int64  `json:"bytes,omitempty"`
	Ranks    int    `json:"ranks,omitempty"` // allreduce ranks, solver GPUs
	Topology string `json:"topology,omitempty"`
	// Shards is the engine: -1 the serial engine, n > 0 the windowed engine
	// on n shards.
	Shards  int    `json:"shards,omitempty"`
	Iters   int    `json:"iters,omitempty"`
	Warmup  int    `json:"warmup,omitempty"`
	Window  int    `json:"window,omitempty"`
	Variant string `json:"variant,omitempty"` // solver variant (Variant.String())
	Mode    string `json:"mode,omitempty"`    // UNICONN launch mode
	Grid    int    `json:"grid,omitempty"`    // Jacobi NX = NY
	Matrix  string `json:"matrix,omitempty"`  // CG matrix: serena | queen | laplace
	// NoAllgatherv runs CG's no-Allgatherv ablation.
	NoAllgatherv bool `json:"no_allgatherv,omitempty"`
	// Compute runs the cell functionally; its numbers are then checked
	// against the serial reference.
	Compute bool `json:"compute,omitempty"`
	// Expect is the catalogued virtual-time result: ns for latency,
	// allreduce and jacobi (per iteration), B/s for bandwidth, total ns for
	// cg.
	Expect float64 `json:"-"`
}

// Query is one what-if query of the service catalogue.
type Query struct {
	ID   string    `json:"id"`
	Spec spec.Spec `json:"spec"`
	// Expect is the catalogued result value (bench.Result.Value).
	Expect float64 `json:"-"`
}

// catalogue is every cell and query the workloads may run.
type catalogue struct {
	BulkBytes, ManyRanks, SolverApps []Cell
	Queries                          []Query
}

// defineCatalogue builds the catalogue from its definition, without the
// expected results.
func defineCatalogue() *catalogue {
	return &catalogue{BulkBytes: bulkBytesCells(), ManyRanks: manyRanksCells(),
		SolverApps: solverAppsCells(), Queries: serveQueries()}
}

// expects returns, by workload and entry ID, where each entry's expected
// result is kept: the shape of catalogue.json.
func (c *catalogue) expects() (map[string]map[string]*float64, error) {
	m := map[string]map[string]*float64{}
	add := func(workload, id string, p *float64) error {
		if m[workload] == nil {
			m[workload] = map[string]*float64{}
		}
		if m[workload][id] != nil {
			return fmt.Errorf("catalogue: %s: duplicate entry ID %s", workload, id)
		}
		m[workload][id] = p
		return nil
	}
	for _, w := range batchWorkloads {
		cells := c.cells(w)
		for i := range cells {
			if err := add(w, cells[i].ID, &cells[i].Expect); err != nil {
				return nil, err
			}
		}
	}
	for i := range c.Queries {
		if err := add("whatif-serve", c.Queries[i].ID, &c.Queries[i].Expect); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// loadCatalogue builds the catalogue and fills in the expected results of
// catalogue.json, which must cover the definition exactly.
func loadCatalogue() (*catalogue, error) {
	var want map[string]map[string]float64
	if err := json.Unmarshal(expectJSON, &want); err != nil {
		return nil, fmt.Errorf("catalogue.json: %w", err)
	}
	c := defineCatalogue()
	m, err := c.expects()
	if err != nil {
		return nil, err
	}
	for w, entries := range m {
		for id, p := range entries {
			v, ok := want[w][id]
			if !ok || v <= 0 {
				return nil, fmt.Errorf("catalogue.json: %s: no expected result for %s; rerun -write-catalogue", w, id)
			}
			*p = v
		}
		if len(want[w]) != len(entries) {
			return nil, fmt.Errorf("catalogue.json: %s lists %d entries, the definition %d; rerun -write-catalogue",
				w, len(want[w]), len(entries))
		}
	}
	return c, nil
}

var batchWorkloads = []string{"bulk-bytes", "many-ranks", "solver-apps"}

// cells returns a batch workload's catalogue.
func (c *catalogue) cells(workload string) []Cell {
	switch workload {
	case "bulk-bytes":
		return c.BulkBytes
	case "many-ranks":
		return c.ManyRanks
	case "solver-apps":
		return c.SolverApps
	}
	return nil
}

// cellStream is a batch workload's seeded input sequence: round after round,
// each a seeded permutation of the whole catalogue. Every run therefore sees
// the same mix of cells, in a seed-specific order, and any cell a run
// reaches twice is a repeat whose values must be identical.
type cellStream struct {
	cells []Cell
	rng   *rand.Rand
	order []int
}

func newCellStream(cells []Cell, seed int64) *cellStream {
	return &cellStream{cells: cells, rng: rand.New(rand.NewSource(seed))}
}

// next returns the index of the next cell in the sequence and whether it
// ends a round.
func (s *cellStream) next() (int, bool) {
	if len(s.order) == 0 {
		s.order = s.rng.Perm(len(s.cells))
	}
	i := s.order[0]
	s.order = s.order[1:]
	return i, len(s.order) == 0
}

// serveLoad is the whatif-serve workload's seeded input: which catalogue
// query each arrival asks and when it is due.
type serveLoad struct {
	queries []Query
	// popularity maps a popularity rank to a catalogue index. It is a fixed
	// shuffle, independent of the run seed, so every seed sees the same hot
	// set and the seed only draws the sequence and the arrival times.
	popularity []int
	cdf        []float64 // cumulative popularity by rank
	rng        *rand.Rand
}

// zipfS is the popularity skew, P(rank k) ∝ 1/(1+k)^zipfS: the default
// Zipfian constant of YCSB (Cooper et al., "Benchmarking Cloud Serving
// Systems with YCSB", SoCC 2010), the usual skew of cache-fronted serving
// benchmarks. math/rand's Zipf needs a skew above 1, so ranks are drawn from
// the cumulative weights instead.
const zipfS = 0.99

// popularitySeed fixes the popularity shuffle. Its value carries no
// meaning: any fixed shuffle gives every run seed the same hot set.
const popularitySeed = 11

func newServeLoad(queries []Query, seed int64) *serveLoad {
	cdf := make([]float64, len(queries))
	sum := 0.0
	for k := range cdf {
		sum += math.Pow(float64(k+1), -zipfS)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return &serveLoad{
		queries:    queries,
		popularity: rand.New(rand.NewSource(popularitySeed)).Perm(len(queries)),
		cdf:        cdf,
		rng:        rand.New(rand.NewSource(seed)),
	}
}

// draw returns the catalogue index of the next query.
func (l *serveLoad) draw() int {
	k := sort.SearchFloat64s(l.cdf, l.rng.Float64())
	return l.popularity[min(k, len(l.cdf)-1)]
}

// arrival is one open-loop query: catalogue index and due offset.
type arrival struct {
	Query int           `json:"query"`
	Due   time.Duration `json:"due"`
}

// schedule draws Poisson arrivals at rate per second over d.
func (l *serveLoad) schedule(rate float64, d time.Duration) []arrival {
	var out []arrival
	t := 0.0
	for {
		t += l.rng.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= d {
			return out
		}
		out = append(out, arrival{Query: l.draw(), Due: due})
	}
}
