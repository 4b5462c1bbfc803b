package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"os"
	"sort"
	"time"

	"cloudless/internal/cloud"
	"cloudless/internal/config"
	"cloudless/internal/eval"
	"cloudless/internal/hcl"
	"cloudless/internal/plan"
	"cloudless/internal/provider"
	"cloudless/internal/state"
	"cloudless/internal/statedb"
)

// fastSim is the simulator every workload runs on: no modelled latency, no
// rate limit, no injected faults.
func fastSim() *cloud.Sim {
	opts := cloud.DefaultOptions()
	opts.TimeScale = 0
	opts.DisableRateLimit = true
	return cloud.NewSim(opts)
}

// microReps is how many times each layer micro-measurement repeats; the
// median is reported.
const microReps = 5

// medianTime runs fn reps times and returns the median duration in ms.
func medianTime(reps int, fn func() error) (float64, error) {
	xs := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		xs = append(xs, ms(time.Since(start)))
	}
	return median(xs), nil
}

// configLayers times the hcl and config layers on a workload's generated
// sources: parse every file, load the module, expand it.
func configLayers(r *result, files map[string]string) error {
	parse, err := medianTime(microReps, func() error {
		for name, src := range files {
			if _, diags := hcl.Parse(name, src); diags.HasErrors() {
				return diags
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("hcl.parse: %w", err)
	}
	var mod *config.Module
	load, err := medianTime(microReps, func() error {
		m, diags := config.Load(files)
		if diags.HasErrors() {
			return diags
		}
		mod = m
		return nil
	})
	if err != nil {
		return fmt.Errorf("config.load: %w", err)
	}
	vars := map[string]eval.Value{}
	for name, decl := range mod.Variables {
		if decl.HasDefault {
			vars[name] = decl.Default
		}
	}
	expand, err := medianTime(microReps, func() error {
		if _, diags := config.Expand(mod, vars, nil); diags.HasErrors() {
			return diags
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("config.expand: %w", err)
	}
	r.layer("hcl.parse_ms", parse, "ms")
	r.layer("config.load_ms", load, "ms")
	r.layer("config.expand_ms", expand, "ms")
	return nil
}

// statedbLayers times a one-resource commit on a DB holding snap, with the
// workload's backend (dir holds the wal backend's log), and a snapshot of
// the live DB.
func statedbLayers(r *result, live *statedb.DB, snap *state.State, backend, dir string) error {
	ctx := context.Background()
	eng, err := statedb.NewEngine(backend, snap, statedb.EngineOptions{Dir: dir})
	if err != nil {
		return fmt.Errorf("statedb engine: %w", err)
	}
	db := statedb.OpenEngine(eng, statedb.ResourceLock)
	defer db.Close()
	addrs := snap.Addrs()
	if len(addrs) == 0 {
		return fmt.Errorf("statedb: empty state")
	}
	i := 0
	commit, err := medianTime(4*microReps, func() error {
		addr := addrs[i%len(addrs)]
		i++
		cp := *snap.Get(addr)
		cp.UpdatedAt = time.Now()
		txn := db.Begin("benchmark")
		if err := txn.Lock(ctx, addr); err != nil {
			txn.Abort()
			return err
		}
		if err := txn.Put(&cp); err != nil {
			txn.Abort()
			return err
		}
		_, err := txn.Commit()
		return err
	})
	if err != nil {
		return fmt.Errorf("statedb commit: %w", err)
	}
	snapMs, err := medianTime(4*microReps, func() error {
		if live.Snapshot() == nil {
			return fmt.Errorf("nil snapshot")
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.layer("statedb.commit_ms", commit, "ms")
	r.layer("statedb.snapshot_us", 1000*snapMs, "us")
	return nil
}

// tempDir makes a scratch directory inside the checkout's build directory
// (the benchmark writes nowhere else).
func tempDir(prefix string) (string, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(".bench_build", prefix)
}

// cloudOps names the simulator's per-op counters, reported as
// cloud.calls_per_op.<op> on every workload.
var cloudOps = []string{"create", "read", "update", "delete", "list", "log", "batch", "health"}

func cloudOpCounts(m cloud.Metrics) map[string]int64 {
	return map[string]int64{
		"create": m.Creates, "read": m.Reads, "update": m.Updates, "delete": m.Deletes,
		"list": m.Lists, "log": m.LogReads, "batch": m.BatchCalls, "health": m.HealthReads,
	}
}

// cloudLayers reports the simulator's call mix and busy time per op, and
// the provider runtimes' cache, coalescing and retry behaviour, over a
// window of ops. own is the benchmark's own calls in the window (checks,
// injection), excluded from the figures.
func cloudLayers(r *result, from, to cloud.Metrics, own cloud.Metrics, pFrom, pTo provider.Stats, busy time.Duration, ops int) {
	a, b, o := cloudOpCounts(from), cloudOpCounts(to), cloudOpCounts(own)
	for _, op := range cloudOps {
		r.layer("cloud.calls_per_op."+op, perOp(float64(b[op]-a[op]-o[op]), ops), "count")
	}
	r.layer("cloud.busy_ms_per_op", perOp(ms(busy), ops), "ms")
	hits, misses := pTo.CacheHits-pFrom.CacheHits, pTo.CacheMisses-pFrom.CacheMisses
	frac := 0.0
	if hits+misses > 0 {
		frac = float64(hits) / float64(hits+misses)
	}
	r.layer("provider.cache_hit_frac", frac, "ratio")
	r.layer("provider.coalesced_per_op", perOp(float64(pTo.Coalesced-pFrom.Coalesced), ops), "count")
	r.layer("provider.retries", float64(pTo.Retries-pFrom.Retries), "count")
}

// addStats sums provider runtime counters across workspaces.
func addStats(a, b provider.Stats) provider.Stats {
	a.Calls += b.Calls
	a.Retries += b.Retries
	a.Throttles += b.Throttles
	a.CacheHits += b.CacheHits
	a.CacheMisses += b.CacheMisses
	a.Coalesced += b.Coalesced
	return a
}

// zeroLayers fills every per-layer metric a workload does not exercise
// with 0, so each traced run reports the full set.
func zeroLayers(r *result) {
	for _, l := range perLayer {
		if _, ok := r.layers[l.name]; !ok {
			r.layer(l.name, 0, l.unit)
		}
	}
}

// spanSelf returns, for every span named name, its self time in ms: its
// duration minus the cloud calls it covers.
func spanSelf(spans []span, name string, cloudIvs []interval) []float64 {
	var out []float64
	for _, s := range spans {
		if s.name == name {
			out = append(out, ms(selfTime(interval{s.start, s.end}, cloudIvs)))
		}
	}
	return out
}

// planDigest is a canonical fingerprint of everything a plan consumer
// observes; equal digests mean byte-identical plans.
func planDigest(p *plan.Plan) uint64 {
	h := fnv.New64a()
	addrs := make([]string, 0, len(p.Changes))
	for a := range p.Changes {
		addrs = append(addrs, a)
	}
	sort.Strings(addrs)
	w := func(s string) { h.Write([]byte(s)); h.Write([]byte{0}) }
	attrs := func(m map[string]eval.Value) {
		names := make([]string, 0, len(m))
		for n := range m {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			w(n)
			w(m[n].String())
		}
	}
	for _, a := range addrs {
		ch := p.Changes[a]
		w(a)
		w(ch.Action.String())
		w(ch.Type)
		w(ch.Region)
		w(ch.ID)
		attrs(ch.Before)
		attrs(ch.After)
		for _, c := range ch.ChangedAttrs {
			w(c)
		}
		for _, d := range ch.Deps {
			w(d)
		}
	}
	for _, n := range p.Graph.Nodes() {
		deps := p.Graph.Dependencies(n)
		sort.Strings(deps)
		w(n)
		for _, d := range deps {
			w(d)
		}
	}
	w(p.Summary())
	return h.Sum64()
}

// perLayer lists every per-layer metric a --trace 1 run reports, on every
// workload; a layer a workload leaves idle reads 0 there.
var perLayer = func() []metricDef {
	l := []metricDef{
		{"hcl.parse_ms", "ms"},
		{"config.load_ms", "ms"},
		{"config.expand_ms", "ms"},
		{"plan.cold_self_ms", "ms"},
		{"plan.cold_us_per_instance", "us"},
		{"plan.replan_self_ms", "ms"},
		{"plan.evaluated_per_edit", "count"},
		{"plan.replayed_per_edit", "count"},
		{"apply.self_ms", "ms"},
		{"statedb.commit_ms", "ms"},
		{"statedb.snapshot_us", "us"},
	}
	for _, route := range []string{"create", "submit", "get", "delete"} {
		l = append(l, metricDef{"server." + route + "_ms.p50", "ms"}, metricDef{"server." + route + "_ms.p99", "ms"})
	}
	l = append(l, metricDef{"server.non2xx", "count"}, metricDef{"server.retries", "count"})
	for _, kind := range jobKinds {
		l = append(l, metricDef{"jobs.wait_ms." + kind + ".p50", "ms"},
			metricDef{"jobs.wait_ms." + kind + ".p99", "ms"},
			metricDef{"jobs.run_ms." + kind, "ms"})
	}
	l = append(l, []metricDef{
		{"jobs.failed", "count"},
		{"jobs.refused", "count"},
		{"wal.journal_bytes_per_job", "bytes"},
		{"wal.state_bytes_per_commit", "bytes"},
		{"wal.durable_session_ms", "ms"},
		{"provider.cache_hit_frac", "ratio"},
		{"provider.coalesced_per_op", "count"},
		{"provider.retries", "count"},
	}...)
	for _, op := range cloudOps {
		l = append(l, metricDef{"cloud.calls_per_op." + op, "count"})
	}
	return append(l, []metricDef{
		{"cloud.busy_ms_per_op", "ms"},
		{"reconcile.ttd_ms", "ms"},
		{"reconcile.scoped_scans_per_drift", "count"},
		{"reconcile.full_scans", "count"},
		{"reconcile.repair_failures", "count"},
		{"reconcile.suppressed", "count"},
		{"reconcile.events_dropped", "count"},
		{"runtime.gc_cpu_frac", "ratio"},
		{"runtime.alloc_mb_per_op", "MB"},
		{"runtime.goroutines_delta", "count"},
		{"loadgen.late_p99_ms", "ms"},
		{"trace.overhead_frac", "ratio"},
	}...)
}()

// jobKinds are the daemon job kinds the tenant-mix sessions submit.
var jobKinds = []string{"plan", "apply", "destroy", "scan"}
