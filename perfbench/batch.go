package main

// The batch workloads (bulk-bytes, many-ranks, solver-apps): cells run one
// at a time, in the seed's order, until the time is up.

import (
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/metrics"
)

type batchWorkload struct {
	name   string
	cells  []Cell
	in     *cellInputs // built by setup
	rss    *rssSampler // while an untraced run measures
	seed   int64
	traced bool
	out    string
}

func newBatch(name string) newFunc {
	return func(cat *catalogue, seed int64, _ time.Duration, traced bool, out string) (workload, error) {
		cells := cat.cells(name)
		if len(cells) == 0 {
			return nil, fmt.Errorf("catalogue has no %s cells", name)
		}
		return &batchWorkload{name: name, cells: cells, seed: seed, traced: traced, out: out}, nil
	}
}

// setup builds the model, the matrices and the serial references.
func (w *batchWorkload) setup() (err error) {
	w.in, err = prepareInputs(w.cells)
	return err
}

func (w *batchWorkload) reset() { w.in = nil }
func (w *batchWorkload) close() { w.in = nil }

// loopResult is one timed stretch of cells. Its timing statistics cover
// whole rounds of the catalogue only, so every run's statistics describe the
// same mix of cells whatever the seed's order; the cells of a last,
// unfinished round are checked but not timed.
type loopResult struct {
	cells int       // cells in whole rounds
	cellS float64   // their calls' summed CPU seconds (cpuNow)
	rates []float64 // each whole round's cells per CPU second
	rss   []float64 // each whole round's peak resident MiB (untraced loops)
	ms    []float64 // CPU ms of each cell's call
	// wallByID is the wall ms of each cell's entry-point call, per cell ID:
	// the engines' pairing compares wall times.
	wallByID map[string][]float64
	counts   map[string]float64 // summed counters of the cells' registries
	maxes    map[string]float64 // maxima of the cells' gauges
	// use is the process's CPU and allocation inside the cells' calls
	// (traced loops only).
	use usage
}

func newLoopResult() loopResult {
	return loopResult{wallByID: map[string][]float64{}, counts: map[string]float64{}, maxes: map[string]float64{}}
}

// cellsPerSec is completed cells per CPU second of the program's calls:
// the median over whole rounds, which one round slowed by a stall on a
// shared host moves less than the mean.
func (l loopResult) cellsPerSec() float64 { return median(l.rates) }

// loop runs cells from the start of the seed's sequence for d. With tr set,
// every cell gets a fresh metrics registry and its spans are recorded.
func (w *batchWorkload) loop(d time.Duration, tr *tracer, rep *report) loopResult {
	res := newLoopResult()
	pending := newLoopResult() // the current round, folded into res when it ends
	stream := newCellStream(w.cells, w.seed)
	seen := map[int]outcome{}
	if w.rss != nil {
		w.rss.take()
	}
	start := time.Now()
	for rounds := 0; rounds == 0 || time.Since(start) < d; {
		i, last := stream.next()
		c := &w.cells[i]
		var reg *metrics.Registry
		var u0 usage
		if tr != nil {
			reg, u0 = metrics.New(), readUsage()
		}
		req := tr.id()
		t0, c0 := time.Now(), cpuNow()
		out, took, err := runCell(c, w.in, reg)
		cpu := cpuNow() - c0
		tr.add(tr.id(), req, req, c.callName(), t0, t0.Add(took))
		if tr != nil {
			pending.use.add(readUsage().sub(u0))
		}
		rep.attempted++
		var ce errCheck
		switch {
		case errors.As(err, &ce):
			rep.fail("serial-reference", c.ID+": "+ce.msg)
		case err != nil:
			rep.fail("returns-without-error", c.ID+": "+err.Error())
		default:
			if prev, ok := seen[i]; ok && prev != out {
				rep.fail("repeat-identical", fmt.Sprintf("%s: %+v, then %+v", c.ID, prev, out))
			}
			seen[i] = out
			if out.Virt != c.Expect {
				rep.drifted[c.ID] = true
			}
		}
		pending.cells++
		pending.cellS += cpu.Seconds()
		pending.ms = append(pending.ms, cpu.Seconds()*1e3)
		pending.wallByID[c.ID] = append(pending.wallByID[c.ID], took.Seconds()*1e3)
		if reg != nil {
			snap := reg.Snapshot()
			for _, cv := range snap.Counters {
				pending.counts[cv.Name] += float64(cv.Value)
			}
			for _, g := range snap.Gauges {
				pending.maxes[g.Name] = math.Max(pending.maxes[g.Name], g.Value)
			}
		}
		tr.add(req, 0, req, "cell "+c.ID, t0, time.Now())
		if last {
			pending.rates = []float64{float64(pending.cells) / pending.cellS}
			if w.rss != nil {
				pending.rss = []float64{w.rss.take()}
			}
			res.merge(pending)
			pending = newLoopResult()
			rounds++
		}
	}
	return res
}

func (l *loopResult) merge(o loopResult) {
	l.cells += o.cells
	l.cellS += o.cellS
	l.rates = append(l.rates, o.rates...)
	l.rss = append(l.rss, o.rss...)
	l.ms = append(l.ms, o.ms...)
	for id, ms := range o.wallByID {
		l.wallByID[id] = append(l.wallByID[id], ms...)
	}
	for name, v := range o.counts {
		l.counts[name] += v
	}
	for name, v := range o.maxes {
		l.maxes[name] = math.Max(l.maxes[name], v)
	}
	l.use.add(o.use)
}

func (w *batchWorkload) measure(d time.Duration, rep *report) error {
	if !w.traced {
		w.rss = startRSS()
		res := w.loop(d, nil, rep)
		w.rss.close()
		w.rss = nil
		rep.metrics["cells_per_s"] = res.cellsPerSec()
		rep.metrics["cell_ms_p50"] = quantile(res.ms, 0.5)
		rep.metrics["cell_ms_p90"] = quantile(res.ms, 0.9)
		rep.metrics["peak_rss_mib"] = median(res.rss)
		rep.note("cells", fmt.Sprint(res.cells))
		return nil
	}
	// The traced run measures the same prefix of the sequence twice: once
	// plain (the tracing-overhead baseline and the engine pairing), once
	// with registries, spans and the CPU profile.
	plain := w.loop(d/2, nil, rep)
	tr := newTracer()
	prof, err := startProfile(w.out, w.name, w.seed)
	if err != nil {
		return err
	}
	res := w.loop(d/2, tr, rep)
	if err := prof.stop(rep); err != nil {
		return err
	}
	if err := tr.write(filepath.Join(w.out, fmt.Sprintf("spans-%s-seed%d.json", w.name, w.seed))); err != nil {
		return err
	}
	n := float64(res.cells)
	m := rep.metrics
	m["alloc_mib_per_cell"] = res.use.allocMiB / n
	m["gc.cpu_share"] = res.use.gcShare()
	m["trace.overhead"] = 1 - res.cellsPerSec()/plain.cellsPerSec()
	events := res.counts["sim.events"]
	if events > 0 {
		m["sim.host_ns_per_event"] = res.cellS * 1e9 / events
	}
	m["sim.events"] = events / n
	m["sim.parks"] = sumPrefix(res.counts, "sim.parks.", "") / n
	m["sim.shard2_wall_ratio"] = shardRatio(plain.wallByID)
	m["mpi.sends.eager"] = res.counts["mpi.sends.eager"] / n
	m["mpi.sends.rendezvous"] = res.counts["mpi.sends.rendezvous"] / n
	if rv := res.counts["mpi.sends.rendezvous"]; rv > 0 {
		m["mpi.retry_ratio"] = res.counts["mpi.rendezvous.retries"] / rv
	}
	m["fabric.bytes"] = sumPrefix(res.counts, "fabric.", ".bytes") / n
	m["fabric.occ.max.switch"] = res.maxes["fabric.occ.max.switch"]
	hits, misses := res.counts["machine.costcache.hits"], res.counts["machine.costcache.misses"]
	if hits+misses > 0 {
		m["machine.costcache.hit_ratio"] = hits / (hits + misses)
	}
	m["gpu.kernels"] = res.counts["gpu.kernels"] / n
	m["gpu.stream_ops"] = res.counts["gpu.stream_ops"] / n
	return nil
}

func sumPrefix(counts map[string]float64, prefix, suffix string) float64 {
	var s float64
	for name, v := range counts {
		if strings.HasPrefix(name, prefix) && strings.HasSuffix(name, suffix) {
			s += v
		}
	}
	return s
}

// shardRatio is the geometric mean, over cells run on both engines, of the
// 2-shard cell's median wall time over the serial cell's.
func shardRatio(byID map[string][]float64) float64 {
	logSum, pairs := 0.0, 0
	for id, serial := range byID {
		if !strings.Contains(id, "/serial") {
			continue
		}
		sharded, ok := byID[strings.Replace(id, "/serial", "/shards2", 1)]
		if !ok {
			continue
		}
		logSum += math.Log(median(sharded) / median(serial))
		pairs++
	}
	if pairs == 0 {
		return 0
	}
	return math.Exp(logSum / float64(pairs))
}
