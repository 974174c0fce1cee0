package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

// batchInputs renders the first rounds of a batch workload's input
// sequence, as the program would receive them.
func batchInputs(t *testing.T, cells []Cell, seed int64) []byte {
	t.Helper()
	s := newCellStream(cells, seed)
	var drawn []Cell
	for i := 0; i < 3*len(cells); i++ {
		k, _ := s.next()
		drawn = append(drawn, cells[k])
	}
	b, err := json.Marshal(drawn)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// serveInputs renders the whatif-serve workload's generated load.
func serveInputs(t *testing.T, queries []Query, seed int64) []byte {
	t.Helper()
	l := newServeLoad(queries, seed)
	in := struct {
		Nominal []arrival
		Rung    []arrival
		Cold    []int
	}{l.schedule(nominalRate, 3*time.Second), l.schedule(rateLadder[0], time.Second), l.rng.Perm(len(queries))}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestInputsAreSeedDeterministic(t *testing.T) {
	cat, err := loadCatalogue()
	if err != nil {
		t.Fatal(err)
	}
	gens := map[string]func(seed int64) []byte{
		"whatif-serve": func(seed int64) []byte { return serveInputs(t, cat.Queries, seed) },
	}
	for _, name := range batchWorkloads {
		cells := cat.cells(name)
		gens[name] = func(seed int64) []byte { return batchInputs(t, cells, seed) }
	}
	for name, gen := range gens {
		a, b, c := gen(7), gen(7), gen(8)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 drew different inputs twice", name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 drew the same inputs", name)
		}
	}
}

// TestRoundsCoverTheCatalogue pins the property the timing statistics rely
// on: each round of a batch sequence is the whole catalogue, once.
func TestRoundsCoverTheCatalogue(t *testing.T) {
	cat, err := loadCatalogue()
	if err != nil {
		t.Fatal(err)
	}
	cells := cat.cells("many-ranks")
	s := newCellStream(cells, 3)
	for round := 0; round < 3; round++ {
		seen := map[int]bool{}
		for i := range cells {
			k, last := s.next()
			if seen[k] {
				t.Fatalf("round %d repeats cell %d", round, k)
			}
			seen[k] = true
			if last != (i == len(cells)-1) {
				t.Fatalf("round %d: end-of-round flag wrong at position %d", round, i)
			}
		}
	}
}

// TestCatalogueIsComplete checks that catalogue.json holds an expected
// result for every entry of the definition, and no other.
func TestCatalogueIsComplete(t *testing.T) {
	cat, err := loadCatalogue()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range batchWorkloads {
		if len(cat.cells(name)) == 0 {
			t.Errorf("%s: no cells", name)
		}
	}
	for _, q := range cat.Queries {
		if err := q.Spec.Validate(); err != nil {
			t.Errorf("query %s: %v", q.ID, err)
		}
	}
}

// TestBenchmarkJSONMatchesCode checks the repository's BENCHMARK.json
// against the metrics and workloads this program reports.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
	for _, w := range bj.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s is not a program workload", w.Name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i,
					got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
}

// TestManifestRecordsTheLoad checks that manifest.json records the
// whatif-serve load settings the program uses.
func TestManifestRecordsTheLoad(t *testing.T) {
	b, err := os.ReadFile("manifest.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Serve struct {
			NominalRate  float64   `json:"nominal_rate_qps"`
			Ladder       []float64 `json:"rate_ladder_qps"`
			P99LimitMs   float64   `json:"p99_limit_ms"`
			ZipfS        float64   `json:"zipf_s"`
			CacheEntries int       `json:"cache_entries"`
			ColdClients  int       `json:"cold_clients"`
			NominalShare float64   `json:"nominal_share_of_run"`
		} `json:"whatif_serve_load"`
	}
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	s := m.Serve
	entries := cacheEntries(len(serveQueries()))
	if s.NominalRate != nominalRate || s.P99LimitMs != p99LimitMs || s.ZipfS != zipfS ||
		s.CacheEntries != entries || s.ColdClients != coldClients || s.NominalShare != nominalShare {
		t.Errorf("manifest records %+v; program uses rate %g, limit %g ms, zipf %g, %d entries, %d cold clients, nominal share %g",
			s, nominalRate, p99LimitMs, zipfS, entries, coldClients, nominalShare)
	}
	if len(s.Ladder) != len(rateLadder) {
		t.Fatalf("manifest ladder %v, program %v", s.Ladder, rateLadder)
	}
	for i := range rateLadder {
		if s.Ladder[i] != rateLadder[i] {
			t.Fatalf("manifest ladder %v, program %v", s.Ladder, rateLadder)
		}
	}
}

// TestZipfDraw checks the popularity draw: every query can be drawn, and
// the most popular one is drawn about as often as Zipf's law says.
func TestZipfDraw(t *testing.T) {
	queries := serveQueries()
	l := newServeLoad(queries, 1)
	counts := make([]int, len(queries))
	const n = 200000
	for i := 0; i < n; i++ {
		counts[l.draw()]++
	}
	want := l.cdf[0] * n
	if got := float64(counts[l.popularity[0]]); math.Abs(got-want) > 0.05*want {
		t.Errorf("top query drawn %g times, want about %g", got, want)
	}
	for qi, c := range counts {
		if c == 0 {
			t.Errorf("query %s never drawn", queries[qi].ID)
		}
	}
}
