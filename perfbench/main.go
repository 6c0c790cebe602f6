// Command perfbench is the repository's performance benchmark. It runs one
// named workload against the simulator (the sim workloads) or the live
// goroutine STM (the stm workloads), checks that the outputs are correct,
// and prints every metric by name and unit as one JSON object on the last
// line of standard output:
//
//	perfbench --workload fig4a-matrix --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics with nothing wrapped. --trace 1
// runs the same workload with the per-layer wrappers on, alternating with
// plain repetitions, and prints the per-layer metrics plus the tracing
// overhead. README.md gives the reasoning behind every workload and metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit. The two tables below
// are the contract with BENCHMARK.json (pinned by TestMetricTablesMatch).
type metricDef struct {
	name, unit string
}

// endToEnd is what --trace 0 prints, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"commits_per_s", "1/s"},
	{"p50_us", "us"},
	{"p99_us", "us"},
	{"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
}

// perLayer is what --trace 1 prints, on every workload. A layer the
// workload does not exercise reports 0.
var perLayer = []metricDef{
	{"harness.cells", "count"},
	{"workload.next_s", "s"},
	{"workload.txs", "count"},
	{"workload.accesses", "count"},
	{"workload.alloc_mb", "MB"},
	{"sched.on_begin_s", "s"},
	{"sched.on_commit_s", "s"},
	{"sched.on_abort_s", "s"},
	{"sched.on_cpu_slot_s", "s"},
	{"sched.on_tx_ended_s", "s"},
	{"sched.begin_calls", "count"},
	{"sched.serialize_pct", "%"},
	{"sched.overhead_mcycles", "Mcycles"},
	{"hwaccel.conf_cache.hit_pct", "%"},
	{"sched.probe.nodes_mean", "count"},
	{"sched.probe.candidates_mean", "count"},
	{"sim.new_runner_s", "s"},
	{"sim.run_s", "s"},
	{"sim.self_s", "s"},
	{"sim.host_ns_per_commit", "ns"},
	{"sim.makespan_mcycles", "Mcycles"},
	{"tm.abort_pct", "%"},
	{"sim.cycles.nontx_pct", "%"},
	{"sim.cycles.kernel_pct", "%"},
	{"sim.cycles.tx_pct", "%"},
	{"sim.cycles.abort_pct", "%"},
	{"sim.cycles.scheduling_pct", "%"},
	{"sim.cycles.idle_pct", "%"},
	{"sim.pred.precision", "ratio"},
	{"sim.shard.msgs.sent", "count"},
	{"sim.shard.send_stall_spins", "count"},
	{"stm.atomic_ns", "ns"},
	{"stm.body_ns", "ns"},
	{"stm.overhead_ns", "ns"},
	{"stm.attempts_per_op", "ratio"},
	{"stm.abort_pct", "%"},
	{"stm.predicted_pct", "%"},
	{"stm.yields", "count"},
	{"stm.stalls", "count"},
	{"stm.validation_hit_pct", "%"},
	{"stm.probe_len_mean", "count"},
	{"stm.probe_nodes_mean", "count"},
	{"stm.slow_ops", "count"},
	{"stm.backoff_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

// workloadSpec is one named workload. run measures it into r.
type workloadSpec struct {
	name string
	run  func(r *run)
}

var workloads = []workloadSpec{
	{"fig4a-matrix", runFig4aMatrix},
	{"wide-256", runWide256},
	{"stm-hot", runSTMHot},
	{"stm-zipf", runSTMZipf},
}

// run is one benchmark invocation: its settings, the failures it counted
// and the metrics it measured.
type run struct {
	seed   uint64
	budget time.Duration
	trace  bool
	// tiny shrinks every workload to a few milliseconds of work; the
	// self-test uses it to exercise every code path quickly.
	tiny bool

	attempted, failed int64
	metrics           map[string]float64
}

func newRun(seed uint64, budget time.Duration, trace, tiny bool) *run {
	return &run{seed: seed, budget: budget, trace: trace, tiny: tiny, metrics: map[string]float64{}}
}

// fail counts one failed operation and says why on standard error.
func (r *run) fail(format string, args ...any) {
	r.failed++
	fmt.Fprintf(os.Stderr, "perfbench: FAIL: "+format+"\n", args...)
}

// set records a metric by name.
func (r *run) set(name string, v float64) { r.metrics[name] = v }

// repeat calls rep(i) for i = 0, 1, ... until the budget is spent, and at
// least atLeast times. Each repetition starts from a collected heap, so one
// repetition's garbage is not charged to the next.
func (r *run) repeat(atLeast int, rep func(i int)) {
	start := time.Now()
	for i := 0; i < atLeast || time.Since(start) < r.budget; i++ {
		runtime.GC()
		rep(i)
	}
}

// required returns the metric table this run must print.
func (r *run) required() []metricDef {
	if r.trace {
		return perLayer
	}
	return endToEnd
}

// metricValue is one entry of the result's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the result line.
type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result checks that every required metric was measured and is finite,
// and assembles the result line.
func (r *run) result() output {
	out := output{Metrics: map[string]metricValue{}}
	for _, d := range r.required() {
		v, ok := r.metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			r.fail("metric %s missing or not finite (%v)", d.name, v)
			continue
		}
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if r.attempted < 1 {
		r.fail("no operation attempted")
		r.attempted = 1
	}
	out.Attempted, out.Failed = r.attempted, r.failed
	out.Correct = r.failed == 0
	return out
}

// peakRSSMB is the peak resident memory of this process image, from
// VmHWM in /proc/self/status. (getrusage's ru_maxrss would also count
// whatever ran in the process before it exec'd this program.)
func peakRSSMB() float64 {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN() // reported as a missing metric
	}
	for _, line := range strings.Split(string(status), "\n") {
		if kb, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(kb, "kB")), 64)
			if err != nil {
				return math.NaN()
			}
			return v * 1024 / 1e6
		}
	}
	return math.NaN()
}

// totalAlloc is the cumulative count of heap bytes allocated.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// median returns the median of xs (the mean of the middle two for an
// even count); xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// medians tracks per-repetition values of named quantities and reports
// each one's median across repetitions.
type medians map[string][]float64

func (m medians) add(name string, v float64) { m[name] = append(m[name], v) }

// into sets every tracked quantity's median on r.
func (m medians) into(r *run) {
	for name, xs := range m {
		r.set(name, median(xs))
	}
}

func main() {
	name := flag.String("workload", "", "workload to run: fig4a-matrix, wide-256, stm-hot or stm-zipf")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 10, "how long to keep repeating the measured work")
	trace := flag.Int("trace", 0, "0 prints the end-to-end metrics, 1 the per-layer metrics of a traced run")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --seconds >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	var spec *workloadSpec
	for i := range workloads {
		if workloads[i].name == *name {
			spec = &workloads[i]
		}
	}
	if spec == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	r := newRun(*seed, time.Duration(*seconds)*time.Second, *trace == 1, false)
	spec.run(r)
	line, err := json.Marshal(r.result())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encode result:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
