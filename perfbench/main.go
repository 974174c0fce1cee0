// Command perfbench is the repository benchmark. It runs one workload,
// given its name and a seed, through the program's public packages, checks
// that the outputs are correct, and prints every end-to-end metric (or,
// with -trace 1, every per-layer metric) by name with its unit. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 812, "failed": 0, "metrics": {"setup_s": {"value": 0.81, "unit": "s"}, ...}}
//
// Build and run it from the repository root with perfbench/run.sh; the
// workloads, metrics and bounds are listed in BENCHMARK.json, and
// perfbench/manifest.json records what each metric should respond to.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// metricDef names one reported metric.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, reported by every workload.
// Every time among them is the process's CPU time (cpuNow), not wall time:
// a shared host that takes the CPUs away from the process stretches wall
// time, while the CPU time the program needs stays. On whatif-serve a
// "cell" is one query: cells_per_s is the throughput of cold rounds (the
// whole catalogue asked of a fresh service by coldClients clients, median
// over rounds), cell_ms_p50/p90 the CPU time of one query answered alone
// by a cold service (solo rounds).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cells_per_s", "1/s"},
	{"cell_ms_p50", "ms"},
	{"cell_ms_p90", "ms"},
	{"peak_rss_mib", "MiB"},
}

// layers are the program's modules measured by host share, in the
// profile's naming (see profile.go).
var layers = []string{"sim", "fabric", "gpu", "buf", "machine", "mpi", "gpuccl", "gpushmem",
	"core", "trace", "metrics", "bench", "spec", "cache", "serve", "solver", "sparse", unattributed, harness}

// perLayer are the metrics of a traced run, reported by every workload; a
// metric a workload does not exercise reads 0.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, l := range layers {
		defs = append(defs, metricDef{"host_share." + l, "share"})
	}
	return append(defs, []metricDef{
		{"gpu.copy_share", "share"},
		{"gpu.clear_share", "share"},
		{"sim.handoff_share", "share"},
		{"alloc_mib_per_cell", "MiB"},
		{"sim.host_ns_per_event", "ns"},
		{"sim.events", "1/cell"},
		{"sim.parks", "1/cell"},
		{"sim.shard2_wall_ratio", "ratio"},
		{"mpi.sends.eager", "1/cell"},
		{"mpi.sends.rendezvous", "1/cell"},
		{"mpi.retry_ratio", "ratio"},
		{"fabric.bytes", "B/cell"},
		{"fabric.occ.max.switch", "share"},
		{"machine.costcache.hit_ratio", "ratio"},
		{"gpu.kernels", "1/cell"},
		{"gpu.stream_ops", "1/cell"},
		{"spec.hash_us", "us"},
		{"serve.hit_ratio", "ratio"},
		{"serve.coalesced_ratio", "ratio"},
		{"serve.batch_size_mean", "count"},
		{"serve.hit_ms_p50", "ms"},
		{"serve.miss_ms_p50", "ms"},
		{"serve.miss_ms_p99", "ms"},
		{"serve.query_ms_p50", "ms"},
		{"serve.query_ms_p99", "ms"},
		{"serve.goodput_qps", "1/s"},
		{"serve.lag_ms_p99", "ms"},
		{"cache.evictions", "count"},
		{"cache.disk_hits", "count"},
		{"gc.cpu_share", "share"},
		{"trace.overhead", "share"},
		{"check.virt_drift", "count"},
	}...)
}()

// A run sets the program up repeatedly and reports the median as setup_s.
// A set-up of a few microseconds cannot be timed alone, so each sample
// times a batch of set-ups, doubled from one until the batch takes
// setupSample of CPU time, and counts the batch's time per set-up. A run
// takes at least setupMin samples, then more until setupWall has passed, at
// most setupMax.
// Only the program's set-up is timed, not the benchmark's own preparation
// (the catalogue and the seeded draw).
const (
	setupSample = time.Millisecond
	setupMin    = 5
	setupMax    = 1000
	setupWall   = time.Second
)

// workload is a workload whose inputs are drawn, ready to set up and measure.
type workload interface {
	// setup does the program's set-up: what the program builds before the
	// first timed operation.
	setup() error
	// reset releases what setup built, so the next setup starts afresh; it
	// does nothing before the first setup.
	reset()
	// measure runs the workload for about d on the last set-up and fills
	// rep: the end-to-end metrics when untraced, the per-layer metrics when
	// traced.
	measure(d time.Duration, rep *report) error
	// close releases everything.
	close()
}

// newFunc draws a workload's inputs from the catalogue with the seed.
type newFunc func(cat *catalogue, seed int64, d time.Duration, traced bool, out string) (workload, error)

var workloads = map[string]newFunc{
	"bulk-bytes":   newBatch("bulk-bytes"),
	"many-ranks":   newBatch("many-ranks"),
	"solver-apps":  newBatch("solver-apps"),
	"whatif-serve": newServe,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: bulk-bytes | many-ranks | solver-apps | whatif-serve")
	seed := fs.Int64("seed", 1, "seed the inputs are drawn with")
	seconds := fs.Float64("seconds", 10, "how long to measure")
	traceOn := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	out := fs.String("out", ".bench_build", "directory for spans, CPU profiles and the result cache's disk tier")
	commit := fs.String("commit", "unknown", "commit of the program, recorded with the host facts")
	writeCat := fs.String("write-catalogue", "", "evaluate the catalogue and write it to this path, then exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// Execution hints from the environment must not change the inputs.
	for _, env := range []string{"UNICONN_SHARDS", "UNICONN_WORKERS"} {
		os.Unsetenv(env)
	}
	if *writeCat != "" {
		if err := writeCatalogue(*writeCat); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	newWorkload, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (one of %s), -seconds > 0 and -trace 0|1\n", workloadNames())
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	d := time.Duration(*seconds * float64(time.Second))

	traced := *traceOn == 1
	cat, err := loadCatalogue()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	w, err := newWorkload(cat, *seed, d, traced, *out)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer w.close()
	setups, err := timeSetups(w)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: setup:", err)
		return 1
	}
	runtime.GC()

	rep := newReport()
	if err := w.measure(d, rep); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rep.metrics["setup_s"] = median(setups)
	if _, ok := rep.metrics["peak_rss_mib"]; !ok { // batch runs report a median over rounds
		rep.metrics["peak_rss_mib"] = peakRSSMiB()
	}
	rep.note("setup_samples", fmt.Sprint(len(setups)))
	if traced {
		rep.metrics["check.virt_drift"] = float64(len(rep.drifted))
	}

	defs := endToEnd
	if traced {
		defs = perLayer
	}
	host := hostFacts(*commit)
	hb, _ := json.Marshal(host) // a map of strings always marshals
	fmt.Fprintf(stdout, "# workload %s seed %d seconds %g trace %d\n", *name, *seed, *seconds, *traceOn)
	fmt.Fprintf(stdout, "# host %s\n", hb)
	rep.printHuman(stdout, defs)
	if err := printResult(stdout, rep, defs); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// timeSetups sets w up repeatedly, leaving it set up, and returns the CPU
// seconds per set-up of each sample.
func timeSetups(w workload) ([]float64, error) {
	n := 1 // set-ups per sample
	var per []float64
	for start := time.Now(); len(per) < setupMin || (len(per) < setupMax && time.Since(start) < setupWall); {
		runtime.GC() // each sample starts from a collected heap
		c0 := cpuNow()
		for i := 0; i < n; i++ {
			w.reset()
			if err := w.setup(); err != nil {
				return nil, err
			}
		}
		took := cpuNow() - c0
		if len(per) == 0 && took < setupSample {
			n *= 2
			continue
		}
		per = append(per, took.Seconds()/float64(n))
	}
	return per, nil
}

func workloadNames() string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, " | ")
}

// report accumulates one run's outcome.
type report struct {
	attempted, failed int
	broken            map[string]int    // invariant → operations that broke it
	example           map[string]string // invariant → the first such operation
	drifted           map[string]bool   // cells and queries whose virtual result left the catalogue
	metrics           map[string]float64
	// notes are figures printed for people but outside the result object.
	notes []note
}

type note struct{ name, text string }

func newReport() *report {
	return &report{broken: map[string]int{}, example: map[string]string{}, drifted: map[string]bool{},
		metrics: map[string]float64{}}
}

// fail records an operation that broke an invariant.
func (r *report) fail(invariant, detail string) {
	r.failed++
	r.broken[invariant]++
	if _, ok := r.example[invariant]; !ok {
		r.example[invariant] = detail
	}
}

func (r *report) note(name, text string) { r.notes = append(r.notes, note{name, text}) }

func (r *report) printHuman(w io.Writer, defs []metricDef) {
	for _, d := range defs {
		fmt.Fprintf(w, "%-30s %14.6g %s\n", d.name, r.metrics[d.name], d.unit)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "%-30s %s\n", n.name, n.text)
	}
	rate := 0.0
	if r.attempted > 0 {
		rate = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "%-30s %14.6g (%d of %d operations failed)\n", "error_rate", rate, r.failed, r.attempted)
	fmt.Fprintf(w, "%-30s %14d (cells or queries whose virtual result differs from catalogue.json; reported, not failed)\n",
		"check.virt_drift", len(r.drifted))
	var names []string
	for inv := range r.broken {
		names = append(names, inv)
	}
	sort.Strings(names)
	for _, inv := range names {
		fmt.Fprintf(w, "BROKEN invariant %s: %d operations; first: %s\n", inv, r.broken[inv], r.example[inv])
	}
}

// printResult prints the result object, the last line of standard output.
func printResult(w io.Writer, r *report, defs []metricDef) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: r.failed == 0 && r.attempted > 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]value{}}
	for _, d := range defs {
		res.Metrics[d.name] = value{r.metrics[d.name], d.unit}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// hostFacts are recorded with every run.
func hostFacts(commit string) map[string]string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]string{
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"cpu":        cpu,
		"commit":     commit,
	}
}

// cpuNow is the CPU time of the whole process so far, all threads, in
// nanoseconds (CLOCK_PROCESS_CPUTIME_ID). On a paravirtualised guest that
// accounts steal time, it leaves out the time the host ran something else.
func cpuNow() time.Duration {
	const clockProcessCPUTimeID = 2
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID,
		uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("clock_gettime(CLOCK_PROCESS_CPUTIME_ID): " + errno.Error())
	}
	return time.Duration(ts.Nano())
}

func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// usage is the process's cumulative CPU and allocation counters; the
// difference of two readings measures a stretch of a run.
type usage struct{ gcCPU, allCPU, allocMiB float64 }

var usageMetrics = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func readUsage() usage {
	s := make([]metrics.Sample, len(usageMetrics))
	for i, name := range usageMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	return usage{s[0].Value.Float64(), s[1].Value.Float64(), float64(s[2].Value.Uint64()) / (1 << 20)}
}

func (u usage) sub(v usage) usage {
	return usage{u.gcCPU - v.gcCPU, u.allCPU - v.allCPU, u.allocMiB - v.allocMiB}
}

func (u *usage) add(v usage) {
	u.gcCPU += v.gcCPU
	u.allCPU += v.allCPU
	u.allocMiB += v.allocMiB
}

// gcShare is the collector's share of the CPU time.
func (u usage) gcShare() float64 {
	if u.allCPU <= 0 {
		return 0
	}
	return u.gcCPU / u.allCPU
}

// profiler takes the CPU profile of a run's traced stretch.
type profiler struct {
	path string
	buf  bytes.Buffer
}

func startProfile(out, name string, seed int64) (*profiler, error) {
	p := &profiler{path: filepath.Join(out, fmt.Sprintf("cpu-%s-seed%d.pprof", name, seed))}
	return p, pprof.StartCPUProfile(&p.buf)
}

// stop ends the profile, writes it next to the spans, and reports its host
// shares by layer.
func (p *profiler) stop(rep *report) error {
	pprof.StopCPUProfile()
	if err := os.WriteFile(p.path, p.buf.Bytes(), 0o644); err != nil {
		return err
	}
	ls, err := foldProfile(p.buf.Bytes())
	if err != nil {
		return err
	}
	if ls.Total == 0 {
		return errors.New("CPU profile holds no samples")
	}
	for _, l := range layers {
		rep.metrics["host_share."+l] = ls.share(ls.ByLayer[l])
	}
	rep.metrics["gpu.copy_share"] = ls.share(ls.GPUCopy)
	rep.metrics["gpu.clear_share"] = ls.share(ls.GPUClear)
	rep.metrics["sim.handoff_share"] = ls.share(ls.SimHandoff)
	return nil
}

// median of xs (0 when empty).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between the closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
