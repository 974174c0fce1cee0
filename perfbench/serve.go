package main

// The whatif-serve workload: seeded queries against an in-process
// serve.Service, sent through its HTTP handler (serve.NewHandler) without a
// network. Four phases:
//
//  1. nominal — an open loop of Poisson arrivals at nominalRate against the
//     cold service that setup started; repeats become hits and cold specs
//     misses. Latency is timed from each query's due time (query_ms_p50
//     and query_ms_p99).
//  2. fill — every catalogue query once, so the ladder meets a warm service.
//  3. ladder — open loops at each rate of rateLadder; the goodput is the
//     highest rate whose p99 stays within p99LimitMs with no failures and
//     no growing backlog.
//  4. cold — the whole catalogue, in a seeded order, asked of a fresh
//     service (empty in-memory cache, no disk tier, whose file-system cost
//     the earlier phases carry), so every query is a miss. Cold rounds ask
//     with coldClients clients at once, so misses are batched or
//     coalesced; cells_per_s is the median of their throughputs, queries
//     per CPU second. Solo rounds ask one query at a time; cell_ms_p50/p90
//     are the quantiles of each query's CPU ms over whole solo rounds. The
//     two kinds alternate until the time is up.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/metrics"
	"repro/internal/serve"
)

// The load settings, recorded with their basis in manifest.json.
const (
	// nominalRate is the throughput target of the service's own load test
	// (serve.TargetQPS).
	nominalRate float64 = serve.TargetQPS // queries per second
	// p99LimitMs is the goodput ladder's latency limit. The repository sets
	// no latency target for the service (its load test gates only speedup
	// and throughput); the limit is a chosen service level.
	p99LimitMs = 5.0
	// coldClients is the client count of the service's own load test
	// (LoadTestConfig.Clients default, uniconn-serve -clients).
	coldClients = 8
	// nominalBacklog bounds the nominal phase's in-flight queries; reaching
	// it fails the run. ladderBacklog is the backlog at which a ladder rung
	// counts as overloaded and stops.
	nominalBacklog = 1024
	ladderBacklog  = 64
	// minRungQueries sets a ladder rung's length: long enough for this
	// many arrivals (so the p99 has ten samples beyond it), at least
	// minRung.
	minRungQueries = 1000
	minRung        = 500 * time.Millisecond
)

// cacheEntries caps the result cache's memory tier at half the query
// catalogue: below the catalogue, so evictions and disk-tier hits happen,
// while the hot half (about 86% of Zipf-0.99 draws over 72 queries) fits.
func cacheEntries(queries int) int { return queries / 2 }

// rateLadder doubles from the load test's throughput target
// (serve.TargetQPS) to the sustained throughput it recorded on a warm
// service (BENCH_serve.json sustained_qps, 16 k/s).
var rateLadder = []float64{500, 1000, 2000, 4000, 8000, 16000}

// nominalShare is the share of the run given to the nominal phase, enough
// for 30 queries beyond its p99 in a 20-second run; the cold phase takes
// what the ladder leaves.
const nominalShare = 0.3

type serveWorkload struct {
	queries []Query
	bodies  [][]byte // request bodies, by catalogue index
	seed    int64
	out     string
	dir     string // parent of the result caches' disk tiers
	disk    string // the nominal service's disk tier

	nominal []arrival
	rungs   [][]arrival
	rng     *rand.Rand // orders the cold phase's repetitions

	traced bool
	reg    *metrics.Registry // traced runs only
	sv     *serve.Service    // built by setup
	h      http.Handler

	mu    sync.Mutex
	first map[string][]byte // spec hash → the first body served for it
}

func newServe(cat *catalogue, seed int64, d time.Duration, traced bool, out string) (workload, error) {
	if len(cat.Queries) < 2 {
		return nil, fmt.Errorf("catalogue has no whatif-serve queries")
	}
	w := &serveWorkload{queries: cat.Queries, seed: seed, out: out, traced: traced, first: map[string][]byte{}}
	for _, q := range cat.Queries {
		b, err := json.Marshal(q.Spec)
		if err != nil {
			return nil, err
		}
		w.bodies = append(w.bodies, b)
	}
	load := newServeLoad(cat.Queries, seed)
	w.nominal = load.schedule(nominalRate, time.Duration(nominalShare*float64(d)))
	for _, rate := range rateLadder {
		w.rungs = append(w.rungs, load.schedule(rate, rungLength(rate)))
	}
	w.rng = load.rng
	if traced {
		w.reg = metrics.New()
	}
	var err error
	if w.dir, err = os.MkdirTemp(out, "whatif-cache-"); err != nil {
		return nil, err
	}
	w.disk = filepath.Join(w.dir, "nominal")
	return w, os.Mkdir(w.disk, 0o755)
}

func rungLength(rate float64) time.Duration {
	return max(minRung, time.Duration(minRungQueries/rate*float64(time.Second)))
}

// setup validates every spec of the catalogue and starts the cold service
// the nominal phase queries, with a disk tier.
func (w *serveWorkload) setup() error {
	for _, q := range w.queries {
		if err := q.Spec.Validate(); err != nil {
			return fmt.Errorf("query %s: %w", q.ID, err)
		}
	}
	w.sv = w.newService(w.reg, w.disk)
	w.h = serve.NewHandler(w.sv, nil)
	return nil
}

func (w *serveWorkload) reset() {
	if w.sv != nil {
		w.sv.Close()
		w.sv, w.h = nil, nil
	}
}

func (w *serveWorkload) close() {
	w.reset()
	os.RemoveAll(w.dir)
}

// newService starts a cold service, with a disk tier in dir unless dir is
// empty.
func (w *serveWorkload) newService(reg *metrics.Registry, dir string) *serve.Service {
	c := cache.New(cache.Options{MaxEntries: cacheEntries(len(w.queries)), Dir: dir})
	return serve.New(serve.Options{Cache: c, Registry: reg})
}

// result is one query's outcome.
type result struct {
	ms, lagMs float64 // from due time to response; generator lateness
	cpuMs     float64 // process CPU time of the handler call (solo rounds)
	source    string  // X-Uniconn-Cache
	invariant string  // the broken invariant, "" when the query is correct
	detail    string
	drift     string  // the spec hash, when the result left the catalogue
	hashUs    float64 // host time of the benchmark's spec.Hash call
}

// query sends catalogue query qi and checks the response.
func (w *serveWorkload) query(h http.Handler, qi int, due, sent time.Time, tr *tracer) result {
	req := tr.id()
	q := &w.queries[qi]
	r := result{lagMs: sent.Sub(due).Seconds() * 1e3}
	t0 := time.Now()
	rec := httptest.NewRecorder()
	hreq := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(w.bodies[qi]))
	c0 := cpuNow()
	h.ServeHTTP(rec, hreq)
	r.cpuMs = (cpuNow() - c0).Seconds() * 1e3
	done := time.Now()
	tr.child(req, req, "serve.Handler", t0)
	r.ms = done.Sub(due).Seconds() * 1e3
	r.source = rec.Header().Get("X-Uniconn-Cache")
	defer func() { tr.add(req, 0, req, "query", sent, time.Now()) }()
	body := rec.Body.Bytes()
	if rec.Code != http.StatusOK {
		r.invariant, r.detail = "returns-without-error", fmt.Sprintf("%s: HTTP %d: %s", q.Spec, rec.Code, bytes.TrimSpace(body))
		return r
	}
	t1 := time.Now()
	hash := q.Spec.Hash()
	tr.child(req, req, "spec.Hash", t1)
	r.hashUs = time.Since(t1).Seconds() * 1e6
	if got := rec.Header().Get("X-Uniconn-Spec-Hash"); got != hash {
		r.invariant, r.detail = "hash-header", fmt.Sprintf("%s: header %s, spec.Hash %s", q.Spec, got, hash)
		return r
	}
	// Every body served for a hash, by any service, must equal the first
	// one byte for byte, so only the first needs decoding.
	w.mu.Lock()
	firstBody, seen := w.first[hash]
	if !seen {
		w.first[hash] = append([]byte(nil), body...)
	}
	w.mu.Unlock()
	if seen {
		if !bytes.Equal(firstBody, body) {
			r.invariant, r.detail = "body-identity", fmt.Sprintf("%s: %s body differs from the first body served", q.Spec, r.source)
		}
		return r
	}
	t2 := time.Now()
	res, err := bench.DecodeResult(body)
	tr.child(req, req, "bench.DecodeResult", t2)
	if err != nil {
		r.invariant, r.detail = "body-decodes", fmt.Sprintf("%s: %v", q.Spec, err)
		return r
	}
	if res.Value != q.Expect {
		r.drift = hash
	}
	return r
}

// openLoop sends each arrival at its due time, whether or not earlier
// queries have been answered. Once backlog queries are in flight it stops
// sending and reports the backlog; the queries it did not send are not
// attempted.
func (w *serveWorkload) openLoop(h http.Handler, arrivals []arrival, backlog int, tr *tracer) ([]result, bool) {
	results := make([]result, len(arrivals))
	sem := make(chan struct{}, backlog)
	var wg sync.WaitGroup
	t0 := time.Now()
	sent := 0
	for _, a := range arrivals {
		due := t0.Add(a.Due)
		waitUntil(due)
		select {
		case sem <- struct{}{}:
		default:
			wg.Wait()
			return results[:sent], true
		}
		wg.Add(1)
		go func(i, qi int, due time.Time) {
			defer wg.Done()
			results[i] = w.query(h, qi, due, time.Now(), tr)
			<-sem
		}(sent, a.Query, due)
		sent++
	}
	wg.Wait()
	return results, false
}

// spinWindow is how long before a due time the open loop stops sleeping
// and yields in a loop instead: a sleep on an idle process overshoots by
// about 0.2 ms (p50; 2-CPU Linux VM, Go 1.24), which would otherwise add
// the generator's lateness to every latency. The spin costs about a tenth
// of a CPU at the nominal rate.
const spinWindow = 500 * time.Microsecond

func waitUntil(due time.Time) {
	if wait := time.Until(due) - spinWindow; wait > 0 {
		time.Sleep(wait)
	}
	for time.Now().Before(due) {
		runtime.Gosched()
	}
}

// coldRound asks a fresh service for the whole catalogue, in a seeded
// order, with coldClients clients, and returns the results and the CPU time
// until the last answer.
func (w *serveWorkload) coldRound(reg *metrics.Registry, tr *tracer) ([]result, time.Duration) {
	sv := w.newService(reg, "")
	defer sv.Close()
	h := serve.NewHandler(sv, nil)
	order := w.rng.Perm(len(w.queries))
	results := make([]result, len(order))
	var mu sync.Mutex
	next := 0
	var wg sync.WaitGroup
	start := cpuNow()
	for c := 0; c < coldClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				k := next
				next++
				mu.Unlock()
				if k >= len(order) {
					return
				}
				now := time.Now()
				results[k] = w.query(h, order[k], now, now, tr)
			}
		}()
	}
	wg.Wait()
	return results, cpuNow() - start
}

// soloRound asks a fresh service for the whole catalogue, in a seeded
// order, one query at a time.
func (w *serveWorkload) soloRound() []result {
	sv := w.newService(nil, "")
	defer sv.Close()
	h := serve.NewHandler(sv, nil)
	var results []result
	for _, qi := range w.rng.Perm(len(w.queries)) {
		now := time.Now()
		results = append(results, w.query(h, qi, now, now, nil))
	}
	return results
}

// tally accumulates query results.
type tally struct {
	n, fails, hits, coalesced       int
	hashUs                          float64
	ms, lagMs, hitMs, missMs, cpuMs []float64
	bad                             []result // results that broke an invariant or drifted
}

func (t *tally) add(results ...result) *tally {
	for _, r := range results {
		t.n++
		t.hashUs += r.hashUs
		t.ms = append(t.ms, r.ms)
		t.lagMs = append(t.lagMs, r.lagMs)
		t.cpuMs = append(t.cpuMs, r.cpuMs)
		switch r.source {
		case "hit":
			t.hits++
			t.hitMs = append(t.hitMs, r.ms)
		case "miss":
			t.missMs = append(t.missMs, r.ms)
		case "coalesced":
			t.coalesced++
		}
		if r.invariant != "" {
			t.fails++
		}
		if r.invariant != "" || r.drift != "" {
			t.bad = append(t.bad, r)
		}
	}
	return t
}

// into folds the tally's operations and failures into the report.
func (t *tally) into(rep *report) {
	rep.attempted += t.n
	for _, r := range t.bad {
		if r.invariant != "" {
			rep.fail(r.invariant, r.detail)
		}
		if r.drift != "" {
			rep.drifted[r.drift] = true
		}
	}
}

func (w *serveWorkload) measure(d time.Duration, rep *report) error {
	traced, reg, h := w.traced, w.reg, w.h
	var tr *tracer
	var prof *profiler
	var u0 usage
	if traced {
		tr = newTracer()
		u0 = readUsage()
		var err error
		if prof, err = startProfile(w.out, "whatif-serve", w.seed); err != nil {
			return err
		}
	}
	start := time.Now()
	all := &tally{}

	results, backlogged := w.openLoop(h, w.nominal, nominalBacklog, tr)
	nominal := (&tally{}).add(results...)
	all.add(results...)
	if backlogged {
		rep.attempted++
		rep.fail("no-backlog", fmt.Sprintf("%d queries in flight at the nominal rate", nominalBacklog))
	}

	// Ask every catalogue query once, so the ladder measures a warm
	// service rather than the catalogue's rarest first misses.
	for qi := range w.queries {
		now := time.Now()
		all.add(w.query(h, qi, now, now, tr))
	}

	goodput := 0.0
	var ladder []string
	for i, rate := range rateLadder {
		results, backlogged := w.openLoop(h, w.rungs[i], ladderBacklog, tr)
		rung := (&tally{}).add(results...)
		all.add(results...)
		p99 := quantile(rung.ms, 0.99)
		if backlogged {
			ladder = append(ladder, fmt.Sprintf("%g/s backlog", rate))
			break
		}
		ladder = append(ladder, fmt.Sprintf("%g/s p99 %.3gms", rate, p99))
		if p99 > p99LimitMs || rung.fails > 0 {
			break
		}
		goodput = rate
	}

	// Cold and solo rounds alternate until the time is up, at least one of
	// each. A traced run has no solo rounds: its cold rounds alternate
	// plain and traced, for the tracing overhead.
	var rates, plainRates []float64
	solo := &tally{}
	for k := 0; k < 2 || time.Since(start) < d; k++ {
		if !traced && k%2 == 1 {
			results := w.soloRound()
			solo.add(results...)
			all.add(results...)
			continue
		}
		rtr, rreg := tr, reg
		if traced && k%2 == 0 {
			rtr, rreg = nil, nil
		}
		results, took := w.coldRound(rreg, rtr)
		all.add(results...)
		rate := float64(len(results)) / took.Seconds()
		if rtr == nil && traced {
			plainRates = append(plainRates, rate)
		} else {
			rates = append(rates, rate)
		}
	}
	all.into(rep)

	ms := nominal.ms
	rep.metrics["cells_per_s"] = median(rates)
	rep.metrics["cell_ms_p50"] = quantile(solo.cpuMs, 0.5)
	rep.metrics["cell_ms_p90"] = quantile(solo.cpuMs, 0.9)
	rep.note("query_ms_p50", fmt.Sprintf("%.4g ms (nominal %g/s, %d queries)", quantile(ms, 0.5), nominalRate, len(ms)))
	rep.note("query_ms_p99", fmt.Sprintf("%.4g ms", quantile(ms, 0.99)))
	rep.note("goodput_qps", fmt.Sprintf("%g 1/s (p99 limit %g ms; rungs: %v)", goodput, p99LimitMs, ladder))
	rep.note("cold_rounds", fmt.Sprint(len(rates)+len(plainRates)))
	rep.note("solo_rounds", fmt.Sprint(solo.n/len(w.queries)))
	if !traced {
		return nil
	}

	if err := prof.stop(rep); err != nil {
		return err
	}
	use := readUsage().sub(u0)
	if err := tr.write(filepath.Join(w.out, fmt.Sprintf("spans-whatif-serve-seed%d.json", w.seed))); err != nil {
		return err
	}
	m := rep.metrics
	if len(plainRates) > 0 && len(rates) > 0 {
		m["trace.overhead"] = 1 - median(rates)/median(plainRates)
	}
	m["alloc_mib_per_cell"] = use.allocMiB / float64(all.n)
	m["gc.cpu_share"] = use.gcShare()
	m["spec.hash_us"] = all.hashUs / float64(all.n)
	m["serve.hit_ratio"] = float64(all.hits) / float64(all.n)
	m["serve.coalesced_ratio"] = float64(all.coalesced) / float64(all.n)
	counts := map[string]float64{}
	for _, cv := range reg.Snapshot().Counters {
		counts[cv.Name] = float64(cv.Value)
	}
	if b := counts["serve.batches"]; b > 0 {
		m["serve.batch_size_mean"] = counts["serve.batched_specs"] / b
	}
	m["serve.hit_ms_p50"] = quantile(nominal.hitMs, 0.5)
	m["serve.miss_ms_p50"] = quantile(all.missMs, 0.5)
	m["serve.miss_ms_p99"] = quantile(all.missMs, 0.99)
	m["serve.query_ms_p50"] = quantile(ms, 0.5)
	m["serve.query_ms_p99"] = quantile(ms, 0.99)
	m["serve.goodput_qps"] = goodput
	m["serve.lag_ms_p99"] = quantile(nominal.lagMs, 0.99)
	m["cache.evictions"] = counts["cache.results.evictions"]
	m["cache.disk_hits"] = counts["cache.results.disk_hits"]
	return nil
}
