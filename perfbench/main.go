// Command perfbench is the repository's performance benchmark. It runs one
// workload through the simulator's public entry points, checks every
// simulated output against committed digests, and prints its metrics.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload grid-medium --seed 1 --seconds 20 --trace 0
//
// Workloads: grid-medium, fig7-large-mem, serve-warm (see README.md).
// --trace 0 prints the end-to-end metrics; --trace 1 makes a separate traced
// run (CPU profile, per-call timings, layer probes) and prints the
// per-layer metrics instead. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// workers is the simulation worker and client count: the benchmark's
// machine has two CPUs.
const workers = 2

// Each run repeats its set-up and reports the median as setup_s. setup_s
// is the set-up's process CPU time (user+sys), not its wall time: on a
// shared host the wall time also counts time spent descheduled, which
// moved single-threaded set-up readings by half between runs. A batch
// workload's set-up (module build and classification) takes milliseconds,
// so it is timed in setupGroups groups of several set-ups each (see
// runBatch); serve-warm's (filling a store) takes a second and is timed
// serveSetupReps times on its own.
const (
	setupGroups    = 9
	serveSetupReps = 3
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	refs     string // directory of committed reference digests
	workdir  string // scratch directory for stores
	record   bool   // write digests into refs instead of checking
	corrupt  bool   // mutation control: corrupt one result before the check
}

// metric is one reported number.
type metric struct {
	Name  string
	Value float64
	Unit  string
}

// outcome is what a workload run reports.
type outcome struct {
	attempted, failed int64
	// notes are human-readable lines about the output check; broken lists
	// failures of the benchmark's own checks (such as the layer fold), which
	// make the run incorrect without failing any request.
	notes  []string
	broken []string
	e2e    []metric
	layers []metric
}

func (o *outcome) e2eAdd(name, unit string, v float64) { o.e2e = append(o.e2e, metric{name, v, unit}) }
func (o *outcome) layerAdd(name, unit string, v float64) {
	o.layers = append(o.layers, metric{name, v, unit})
}

// workloadFuncs maps a workload name to its runner.
var workloadFuncs = map[string]func(context.Context, config) (*outcome, error){
	"grid-medium":    func(ctx context.Context, c config) (*outcome, error) { return runBatch(ctx, c, gridMedium) },
	"fig7-large-mem": func(ctx context.Context, c config) (*outcome, error) { return runBatch(ctx, c, fig7LargeMem) },
	"serve-warm":     runServe,
}

func main() {
	var c config
	flag.StringVar(&c.workload, "workload", "", "workload to run (grid-medium|fig7-large-mem|serve-warm)")
	flag.Uint64Var(&c.seed, "seed", 1, "simulation seed; the same seed gives the same inputs")
	flag.Float64Var(&c.seconds, "seconds", 20, "measurement length in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&c.refs, "refs", "perfbench/digests", "directory of committed reference digests")
	flag.StringVar(&c.workdir, "workdir", ".bench_build/work", "scratch directory for result stores")
	flag.BoolVar(&c.record, "record", false, "write this run's result digests into -refs instead of checking them")
	flag.BoolVar(&c.corrupt, "corrupt", false, "mutation control: corrupt one result byte before the output check")
	flag.Parse()
	c.trace = *trace != 0

	run, ok := workloadFuncs[c.workload]
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", c.workload))
	}
	if c.seconds <= 0 {
		fatal(errors.New("--seconds must be positive"))
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := os.MkdirAll(c.workdir, 0o755); err != nil {
		fatal(err)
	}
	work, err := os.MkdirTemp(c.workdir, c.workload+"-")
	if err != nil {
		fatal(err)
	}
	c.workdir = work
	o, err := run(ctx, c)
	os.RemoveAll(work)
	if err != nil {
		fatal(err)
	}
	if err := report(os.Stdout, c, o); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// report prints the metric table and, last, the JSON result line.
func report(w *os.File, c config, o *outcome) error {
	for i := 0; i < len(o.notes); {
		j := i + 1
		for j < len(o.notes) && o.notes[j] == o.notes[i] {
			j++
		}
		if j-i > 1 {
			fmt.Fprintf(w, "check: %s (x%d)\n", o.notes[i], j-i)
		} else {
			fmt.Fprintln(w, "check:", o.notes[i])
		}
		i = j
	}
	for _, n := range o.broken {
		fmt.Fprintln(w, "check: FAILED:", n)
	}
	fmt.Fprintf(w, "check: failed_frac %.6f (%d failed of %d attempted)\n",
		float64(o.failed)/float64(max(o.attempted, 1)), o.failed, o.attempted)
	ms := o.e2e
	if c.trace {
		ms = o.layers
	}
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool           `json:"correct"`
		Attempted int64          `json:"attempted"`
		Failed    int64          `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{o.failed == 0 && o.attempted > 0 && len(o.broken) == 0, o.attempted, o.failed, make(map[string]val, len(ms))}
	for _, m := range ms {
		fmt.Fprintf(w, "%-34s %16s %s\n", m.Name, strconv.FormatFloat(m.Value, 'g', 8, 64), m.Unit)
		out.Metrics[m.Name] = val{m.Value, m.Unit}
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// ---- measurement helpers -----------------------------------------------

// usage is a point-in-time reading of wall clock and process CPU.
type usage struct {
	wall time.Time
	cpu  time.Duration
}

func readUsage() usage {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return usage{time.Now(), tvDur(ru.Utime) + tvDur(ru.Stime)}
}

func tvDur(tv syscall.Timeval) time.Duration {
	return time.Duration(tv.Sec)*time.Second + time.Duration(tv.Usec)*time.Microsecond
}

// span is the wall and CPU seconds between two readings.
func span(a, b usage) (wall, cpu float64) {
	return b.wall.Sub(a.wall).Seconds(), (b.cpu - a.cpu).Seconds()
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// rtStats reads the Go runtime's cumulative GC CPU, total CPU and
// allocation counters.
type rtStats struct{ gcCPU, totalCPU, allocBytes float64 }

func readRuntime() rtStats {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindFloat64:
			return v.Float64()
		case metrics.KindUint64:
			return float64(v.Uint64())
		}
		return 0
	}
	return rtStats{val(s[0].Value), val(s[1].Value), val(s[2].Value)}
}

// runtimeLayers adds the runtime's per-layer metrics over [a, b].
func runtimeLayers(o *outcome, a, b rtStats) {
	gc := 0.0
	if d := b.totalCPU - a.totalCPU; d > 0 {
		gc = (b.gcCPU - a.gcCPU) / d
	}
	o.layerAdd("runtime.gc_cpu_frac", "ratio", gc)
	o.layerAdd("runtime.alloc_mb", "MB", (b.allocBytes-a.allocBytes)/(1<<20))
}

// freshDir creates a new empty directory under the run's scratch space.
func freshDir(c config, name string) (string, error) {
	return os.MkdirTemp(c.workdir, name+"-")
}

// settle collects the previous phase's garbage so it is not charged to the
// next timed phase.
func settle() { runtime.GC() }

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// refPath names a reference digest file.
func refPath(c config, name string) string { return filepath.Join(c.refs, name) }
