// Command benchmark measures cloudless end to end and layer by layer on
// three seeded workloads against the real engine: the cloudless.Stack
// facade (fleet-edit), and internal/server + internal/jobs +
// internal/workspace serving HTTP on a loopback listener in this process
// (tenant-mix, drift-repair). The cloud simulator runs with no modelled
// latency and no rate limit, so every timing is this program's own CPU,
// locks, fsyncs and queues.
//
//	go run . --workload fleet-edit --seed 1 --seconds 10 --trace 0
//
// The report lists every metric by name with its unit; the last line of
// standard output is one JSON object {correct, attempted, failed, metrics}.
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run is split into an untraced and a traced half and the metrics are the
// per-layer ones, plus the tracing overhead between the halves. A broken
// correctness invariant makes the command exit 1. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one workload run measured.
type result struct {
	attempted int
	failed    int
	broken    []string // correctness invariants that failed

	setup []time.Duration // every set-up of the run
	// Generic end-to-end figures: the workload's operation (an edit, a
	// session, a repaired drift) and its cost. op's tail is the percentile
	// the report names; opP90 is reported beside it.
	op         dist
	opP90      float64 // ms
	cpuPerOp   float64 // ms
	heapMB     float64
	callsPerOp float64

	// named holds the workload's own end-to-end metrics under the names the
	// report uses (edit_p50_ms, ttr_p99_ms, ...), in report order.
	named []namedMetric
	// layers holds per-layer metrics (traced half only).
	layers map[string]metric
}

type namedMetric struct {
	name string
	metric
	note string
}

// setOp summarizes the operation latencies (ms); want is the tail
// percentile the report asks for.
func (r *result) setOp(lat []float64, want float64) {
	r.op = summarize(lat, want)
	r.opP90 = summarize(lat, 90).Tail
}

func (r *result) add(name string, v float64, unit, note string) {
	r.named = append(r.named, namedMetric{name, metric{v, unit}, note})
}

func (r *result) layer(name string, v float64, unit string) {
	if r.layers == nil {
		r.layers = map[string]metric{}
	}
	r.layers[name] = metric{v, unit}
}

// check records a broken invariant, and a failed operation, when !ok.
func (r *result) check(ok bool, format string, args ...any) bool {
	if !ok {
		r.failed++
		r.broke(format, args...)
	}
	return ok
}

// broke records a broken invariant (the first 20 are kept for the report).
func (r *result) broke(format string, args ...any) {
	if len(r.broken) < 20 {
		r.broken = append(r.broken, fmt.Sprintf(format, args...))
	}
}

// runCfg is one measured phase of a workload.
type runCfg struct {
	seed     int64
	seconds  time.Duration
	tr       *tracer // nil: untraced
	setupRep int     // how many times to build the world (median reported)
}

type workloadDef struct {
	name string
	why  string
	run  func(runCfg) (*result, error)
	// setupRep is how many times an untraced run builds its world; setup_s
	// is the median.
	setupRep int
}

var workloads = []workloadDef{
	{"fleet-edit", "one engineer's edit -> replan -> apply loop on a ~2k-instance stack; planner and statedb at large state", fleetEdit, 3},
	{"tenant-mix", "open-loop preview and review sessions from many tenants over HTTP; server, jobs, wal and workspace lifecycle", tenantMix, 5},
	{"drift-repair", "open-loop foreign drift on reconciled tenants; activity log, scoped scans, guarded repair", driftRepair, 5},
}

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics every --trace 0 run prints in its JSON line.
// Each workload fills them from its own operation (see README.md).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"live_heap_mb", "MB"},
	{"cloud_calls_per_op", "count"},
}

func main() {
	name := flag.String("workload", "", "fleet-edit | tenant-mix | drift-repair")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1: per-layer run (untraced half, then traced half)")
	flag.Parse()
	var wl *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: benchmark --workload fleet-edit|tenant-mix|drift-repair --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	dur := time.Duration(*seconds) * time.Second

	env := stampEnv(*seed, wl.name)
	fmt.Printf("# workload %s (%s)\n", wl.name, wl.why)
	for _, kv := range env {
		fmt.Printf("# env %s=%s\n", kv[0], kv[1])
	}

	out := map[string]metric{}
	var res *result
	var err error
	if *trace == 0 {
		res, err = wl.run(runCfg{seed: *seed, seconds: dur, setupRep: wl.setupRep})
		if err != nil {
			fail(err)
		}
		report(res)
		for _, m := range endToEnd {
			out[m.name] = metric{endToEndValue(res, m.name), m.unit}
		}
	} else {
		// The untraced half runs on the raw simulator; the traced half on the
		// timing decorator with spans on. Their p50 gap is the overhead.
		plain, err := wl.run(runCfg{seed: *seed, seconds: dur / 2, setupRep: 1})
		if err != nil {
			fail(err)
		}
		res, err = wl.run(runCfg{seed: *seed, seconds: dur / 2, tr: &tracer{}, setupRep: 1})
		if err != nil {
			fail(err)
		}
		overhead := 0.0
		if plain.op.P50 > 0 {
			overhead = res.op.P50/plain.op.P50 - 1
		}
		res.layer("trace.overhead_frac", overhead, "ratio")
		res.attempted += plain.attempted
		res.failed += plain.failed
		res.broken = append(plain.broken, res.broken...)
		fmt.Printf("untraced half: op p50 %.3f ms (n=%d); traced half: %.3f ms (n=%d); overhead %+.1f%%\n",
			plain.op.P50, plain.op.N, res.op.P50, res.op.N, 100*overhead)
		report(res)
		for _, l := range perLayer {
			m := res.layers[l.name]
			fmt.Printf("layer %-34s %14.4f %s\n", l.name, m.Value, m.Unit)
			out[l.name] = m
		}
	}

	for _, b := range res.broken {
		fmt.Printf("BROKEN: %s\n", b)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(res.broken) == 0, res.attempted, res.failed, out})
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
	if len(res.broken) > 0 {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

func endToEndValue(r *result, name string) float64 {
	switch name {
	case "setup_s":
		xs := make([]float64, len(r.setup))
		for i, d := range r.setup {
			xs[i] = d.Seconds()
		}
		return median(xs)
	case "op_p50_ms":
		return r.op.P50
	case "cpu_ms_per_op":
		return r.cpuPerOp
	case "live_heap_mb":
		return r.heapMB
	case "cloud_calls_per_op":
		return r.callsPerOp
	}
	panic("unknown end-to-end metric " + name)
}

// report prints the workload's named end-to-end metrics, then the common
// ones, each with its unit.
func report(r *result) {
	setups := make([]string, len(r.setup))
	for i, d := range r.setup {
		setups[i] = fmt.Sprintf("%.3f", d.Seconds())
	}
	frac := 0.0
	if r.attempted > 0 {
		frac = float64(r.failed) / float64(r.attempted)
	}
	lines := append([]namedMetric(nil), r.named...)
	lines = append(lines,
		namedMetric{"op_p90_ms", metric{r.opP90, "ms"}, "p90 of the operations"},
		namedMetric{"setup_s", metric{endToEndValue(r, "setup_s"), "s"}, "median of " + strings.Join(setups, ", ")},
		namedMetric{"cpu_ms_per_op", metric{r.cpuPerOp, "ms"}, "process user+sys CPU per completed op"},
		namedMetric{"live_heap_mb", metric{r.heapMB, "MB"}, "after a forced GC at a fixed amount of work"},
		namedMetric{"fail_frac", metric{frac, "ratio"}, fmt.Sprintf("%d failed of %d attempted", r.failed, r.attempted)},
	)
	for _, m := range lines {
		fmt.Printf("%-22s %14.4f %-6s %s\n", m.name, m.Value, m.Unit, m.note)
	}
}

// distNote states a dist's sample count and the tail percentile used.
func distNote(d dist) string { return fmt.Sprintf("n=%d, tail at p%.2f", d.N, d.TailPct) }

// stampEnv describes where and on what the result was measured.
func stampEnv(seed int64, wl string) [][2]string {
	// The checkout may be an export without git metadata; only ask git
	// when the run is at the root of a git work tree.
	commit := "unknown"
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
			commit = strings.TrimSpace(string(out))
		}
	}
	cpu := "unknown"
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	backend := map[string]string{
		"fleet-edit":   "memory",
		"tenant-mix":   "memory (wal in the traced run's durability probe)",
		"drift-repair": "memory",
	}[wl]
	return [][2]string{
		{"commit", commit},
		{"go", runtime.Version()},
		{"gomaxprocs", fmt.Sprint(runtime.GOMAXPROCS(0))},
		{"nproc", fmt.Sprint(runtime.NumCPU())},
		{"cpu", cpu},
		{"state_backend", backend},
		{"seed", fmt.Sprint(seed)},
	}
}

// procSample is a point-in-time reading of the process's resource use.
type procSample struct {
	cpu        time.Duration // user + sys
	gcCPU      float64       // seconds of GC CPU
	totalCPU   float64       // seconds of CPU as the runtime counts it
	allocBytes float64
	goroutines int
}

func sampleProc() procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	return procSample{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		gcCPU:      s[0].Value.Float64(),
		totalCPU:   s[1].Value.Float64(),
		allocBytes: float64(s[2].Value.Uint64()),
		goroutines: runtime.NumGoroutine(),
	}
}

// runtimeLayers reports the runtime layer over a measured window of ops.
func runtimeLayers(r *result, from, to procSample, ops int) {
	gcFrac := 0.0
	if d := to.totalCPU - from.totalCPU; d > 0 {
		gcFrac = (to.gcCPU - from.gcCPU) / d
	}
	r.layer("runtime.gc_cpu_frac", gcFrac, "ratio")
	r.layer("runtime.alloc_mb_per_op", perOp((to.allocBytes-from.allocBytes)/(1<<20), ops), "MB")
	r.layer("runtime.goroutines_delta", float64(to.goroutines-from.goroutines), "count")
}

// cpuPerOp is process CPU per completed op over a window, in ms.
func cpuPerOp(from, to procSample, ops int) float64 { return perOp(ms(to.cpu-from.cpu), ops) }

// liveHeapMB forces a GC and reads the live heap.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

func perOp(total float64, ops int) float64 {
	if ops <= 0 {
		return 0
	}
	return total / float64(ops)
}
