// Command benchmark is loosesim's layered benchmark. It runs one workload
// for a fixed number of host seconds, checks every output it produces,
// and prints its metrics by name and unit; the last line of standard
// output is a JSON summary.
//
//	go run . --workload kernel-long --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the summary holds the end-to-end metrics, measured with
// all tracing off. With --trace 1 it holds the per-layer metrics: the
// workload runs once untraced and once with spans around every call into
// the simulator (plus a CPU profile), and a fixed suite of layer probes
// times the public functions of each internal module. README.md lists the
// metrics, the layer each one measures, and the end-to-end metric and
// workload it should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"loosesim/internal/pipeline"
)

// workloadDef is one benchmark workload.
type workloadDef struct {
	// point is the single configuration the layer probes run: the
	// workload's own machine and benchmark.
	point func(seed int64) (pipeline.Config, error)
	// run measures the workload until the deadline.
	run func(e *env) (*outcome, error)
}

var workloads = map[string]workloadDef{
	"kernel-long":   {point: kernelPoint, run: runKernelLong},
	"sampled-point": {point: sampledPoint, run: runSampledPoint},
	"fig8-served":   {point: fig8Point, run: runFig8Served},
}

// env is what one measured pass of a workload sees.
type env struct {
	seed     int64
	deadline time.Time
	// sp records spans around calls into the simulator; nil when the
	// pass is untraced.
	sp *spans
	// checks counts operations and the ones that failed a check.
	checks *checks
}

// outcome is what one pass of a workload measured.
type outcome struct {
	setup  []float64 // seconds per set-up
	kips   []float64 // full-fidelity simulation throughput samples
	allocs []float64 // heap allocations per 1k retired instructions
	ops    []float64 // µs per repeated operation
	opName string    // what one operation is, for the printed table

	// model is the simulated outcome: the full-fidelity counters of the
	// workload (summed over the grid for fig8-served) and a digest over
	// every result's counters.
	model  pipeline.Counters
	digest uint64
	// pointCounters is the full run of the workload's point, which the
	// sample probe compares its estimate against.
	pointCounters pipeline.Counters

	// Host time spent in detailed simulation, and the simulated cycles
	// and issue slots it produced.
	simSeconds float64
	simCycles  float64
	simIssued  float64

	// fleet holds the serve/dispatch layer figures of fig8-served.
	fleet *fleetStats
}

// checks counts attempted and failed operations. An operation fails when
// it errors or when any of its output checks does not hold.
type checks struct {
	attempted, failed int
}

func (c *checks) op(err error) {
	c.attempted++
	if err != nil {
		c.failed++
		fmt.Fprintln(os.Stderr, "FAILED:", err)
	}
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the ordered set of metrics one run prints.
type report struct {
	names   []string
	metrics map[string]metric
	notes   map[string]string
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, notes: map[string]string{}}
}

func (r *report) set(name string, v float64, unit string) {
	if _, ok := r.metrics[name]; !ok {
		r.names = append(r.names, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) note(name, text string) { r.notes[name] = text }

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: kernel-long, sampled-point or fig8-served")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 30, "host seconds to measure")
	traceFlag := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "usage: benchmark --workload <%s> --seed N --seconds S --trace 0|1\n", workloadNames())
		return 2
	}
	host := hostIdentity()
	fmt.Printf("host: %s\n", host)
	fmt.Printf("run: workload=%s seed=%d seconds=%g trace=%d\n", *name, *seed, *seconds, *traceFlag)

	c := &checks{}
	rep := newReport()
	var err error
	if *traceFlag == 0 {
		err = measureEndToEnd(w, *seed, *seconds, c, rep)
	} else {
		err = measureLayers(w, *name, *seed, *seconds, c, rep)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if c.attempted == 0 {
		fmt.Fprintln(os.Stderr, "benchmark: no operation completed in the measured time")
		return 1
	}
	for _, n := range rep.names {
		m := rep.metrics[n]
		fmt.Printf("%-28s %18s %-10s %s\n", n, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit, rep.notes[n])
	}
	fmt.Printf("ops: attempted=%d failed=%d\n", c.attempted, c.failed)
	if err := saveResult(*name, *seed, *traceFlag, host, c, rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: saving result:", err)
		return 1
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{c.failed == 0, c.attempted, c.failed, rep.metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

func workloadNames() string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, "|")
}

// measureEndToEnd runs the workload untraced for the whole run and reports
// the end-to-end metrics.
func measureEndToEnd(w workloadDef, seed int64, seconds float64, c *checks, rep *report) error {
	out, err := w.run(&env{seed: seed, deadline: deadline(seconds), checks: c})
	if err != nil {
		return err
	}
	endToEnd(out, rep)
	return nil
}

// endToEnd turns one pass's samples into the end-to-end metrics.
func endToEnd(out *outcome, rep *report) {
	rep.set("setup_s", median(out.setup), "s")
	rep.note("setup_s", fmt.Sprintf("median of %d set-ups", len(out.setup)))
	rep.set("sim_kips", median(out.kips), "kinst/s")
	rep.note("sim_kips", fmt.Sprintf("median of %d full-fidelity runs", len(out.kips)))
	rep.set("allocs_per_kinst", median(out.allocs), "count")
	rep.set("op_p50_us", median(out.ops), "us")
	rep.note("op_p50_us", fmt.Sprintf("op = %s, n=%d", out.opName, len(out.ops)))
	rep.set("peak_rss_mb", peakRSSMB(), "MB")
}

func deadline(seconds float64) time.Time {
	return time.Now().Add(time.Duration(seconds * float64(time.Second)))
}

// hostIdentity names the host and toolchain a result was measured on.
// Results from different CPU models are not comparable.
func hostIdentity() string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// mallocs is the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// saveResult records the run, with its host identity and seed, under
// .bench_build/results in the working directory.
func saveResult(name string, seed int64, traced int, host string, c *checks, rep *report) error {
	dir := filepath.Join(".bench_build", "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(map[string]any{
		"workload": name, "seed": seed, "trace": traced, "host": host,
		"attempted": c.attempted, "failed": c.failed, "metrics": rep.metrics, "notes": rep.notes,
		"date": time.Now().UTC().Format(time.RFC3339),
	}, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", name, seed, traced))
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
