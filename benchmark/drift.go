package main

import (
	"bufio"
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"cloudless/internal/cloud"
	"cloudless/internal/eval"
	"cloudless/internal/server"
	"cloudless/internal/workload"
)

// drift-repair: tenants are deployed with their reconciler on, and a
// seeded foreign actor injects drift straight into the simulator on an
// open-loop Poisson schedule: mostly renames, some load-balancer deletes.
// Time to repair is read from the activity log: the injection event to the
// tenant principal's repair event on that resource.
const (
	driftTenants    = 10
	driftRate       = 100.0 // injected drifts per second
	driftDeleteFrac = 0.2
	driftIntruder   = "intruder"
	// driftQuiesce bounds the wait, after the last injection, for the
	// reconcilers to finish repairing.
	driftQuiesce = 20 * time.Second
	driftSettle  = 50 * time.Millisecond
)

// driftTuning is the reconciler configuration every tenant enables: a short
// debounce so the loop's work, not its timer, dominates, and flap damping
// out of the way of a benchmark that re-drifts the same few resources.
var driftTuning = server.ReconcilerRequest{
	Enabled: true, DebounceMs: 2,
	BackoffBaseMs: 10, BackoffMaxMs: 100, FlapThreshold: 1000,
}

// driftTarget is one resource the intruder may touch.
type driftTarget struct {
	tenant, addr, typ string
	declared          string // declared name (renames)
	del               bool   // delete instead of rename
}

// injection is one drift the intruder made.
type injection struct {
	target driftTarget
	id     string
	err    error
}

func driftSources(j int) map[string]string {
	return workload.WebTier(fmt.Sprintf("dt%d", j), 2, 4)
}

func driftRepair(cfg runCfg) (*result, error) {
	ctx := context.Background()
	r := &result{}
	var d *daemon
	names := make([]string, driftTenants)
	for j := range names {
		names[j] = fmt.Sprintf("dt-%d", j)
	}
	for i := 0; i < cfg.setupRep; i++ {
		if d != nil {
			d.stop()
		}
		start := time.Now()
		var err error
		if d, err = startDaemon("", cfg.tr); err != nil {
			return nil, err
		}
		for j, name := range names {
			err := d.deploy(ctx, name, driftSources(j))
			if err == nil {
				d.call()
				_, err = d.client.SetReconciler(ctx, name, driftTuning)
			}
			if err != nil {
				d.stop()
				return nil, fmt.Errorf("drift set-up: %w", err)
			}
		}
		r.setup = append(r.setup, time.Since(start))
	}
	defer d.stop()
	cfg.tr.take()

	// Every tenant's renameable resources and its load balancer, shuffled
	// once; the intruder walks them round-robin so a resource is touched
	// again only after every other one has been.
	var renames, deletes []driftTarget
	for _, name := range names {
		ws, err := d.mgr.Get(name)
		if err != nil {
			return nil, err
		}
		snap := ws.DB().Snapshot()
		for _, addr := range snap.Addrs() {
			rs := snap.Get(addr)
			switch rs.Type {
			case "aws_vpc", "aws_security_group", "aws_subnet":
				renames = append(renames, driftTarget{tenant: name, addr: addr, typ: rs.Type, declared: rs.Attrs["name"].AsString()})
			case "aws_load_balancer":
				deletes = append(deletes, driftTarget{tenant: name, addr: addr, typ: rs.Type, del: true})
			}
		}
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	rng.Shuffle(len(renames), func(i, j int) { renames[i], renames[j] = renames[j], renames[i] })
	rng.Shuffle(len(deletes), func(i, j int) { deletes[i], deletes[j] = deletes[j], deletes[i] })

	logFrom := d.sim.LastSeq()
	simFrom, provFrom, procFrom := d.sim.Metrics(), d.providerStats(names), sampleProc()
	// A fixed count of drifts, a fixed share of them deletes, at seeded
	// uniform times and in seeded order.
	n := int(driftRate * cfg.seconds.Seconds())
	due := arrivals(rng, n, cfg.seconds)
	dels := make([]bool, n)
	for i := 0; i < int(driftDeleteFrac*float64(n)); i++ {
		dels[i] = true
	}
	rng.Shuffle(n, func(i, j int) { dels[i], dels[j] = dels[j], dels[i] })
	var injs []injection
	var late []float64
	start := time.Now()
	nextRename, nextDelete := 0, 0
	for i := 0; i < n; i++ {
		var tgt driftTarget
		if dels[i] {
			tgt = deletes[nextDelete%len(deletes)]
			nextDelete++
		} else {
			tgt = renames[nextRename%len(renames)]
			nextRename++
		}
		at := start.Add(due[i])
		if wait := time.Until(at); wait > 0 {
			time.Sleep(wait)
		}
		sent := time.Now()
		_, lt := openLoop(at, sent, sent)
		late = append(late, ms(lt))
		injs = append(injs, inject(ctx, d, tgt, i))
	}
	own := cloud.Metrics{Calls: int64(len(injs))}
	for _, in := range injs {
		if in.target.del {
			own.Deletes++
		} else {
			own.Updates++
		}
	}
	quiet := awaitRepairs(d.sim, logFrom, len(injs))
	procTo, simTo, provTo := sampleProc(), d.sim.Metrics(), d.providerStats(names)
	r.heapMB = liveHeapMB()
	r.check(quiet, "reconcilers did not repair %d drifts within %v", len(injs), driftQuiesce)

	ttr, err := driftLog(ctx, r, d.sim, logFrom, injs)
	if err != nil {
		return nil, err
	}
	if err := checkDeclared(ctx, r, d, renames, deletes); err != nil {
		return nil, err
	}

	r.setOp(ttr, 99)
	repaired := len(ttr)
	r.cpuPerOp = cpuPerOp(procFrom, procTo, repaired)
	r.callsPerOp = perOp(float64(simTo.Calls-simFrom.Calls-own.Calls), repaired)
	r.add("ttr_p50_ms", r.op.P50, "ms", fmt.Sprintf("%s, injection to repair event in the activity log", distNote(r.op)))
	r.add(fmt.Sprintf("ttr_p%.4g_ms", r.op.TailPct), r.op.Tail, "ms", "ttr_p99_ms by the percentile rule")
	r.add("cloud_calls_per_drift", r.callsPerOp, "count", "simulator calls per repaired drift, injector excluded")

	if cfg.tr != nil {
		spans := cfg.tr.take()
		busy, _ := cloudBusy(spans)
		cloudLayers(r, simFrom, simTo, own, provFrom, provTo, busy, repaired)
		runtimeLayers(r, procFrom, procTo, repaired)
		r.layer("loadgen.late_p99_ms", summarize(late, 99).Tail, "ms")
		if err := reconcileLayers(ctx, r, d, names, repaired); err != nil {
			return nil, err
		}
		if err := configLayers(r, driftSources(0)); err != nil {
			return nil, err
		}
		ws, err := d.mgr.Get(names[0])
		if err != nil {
			return nil, err
		}
		if err := statedbLayers(r, ws.DB(), ws.DB().Snapshot(), "memory", ""); err != nil {
			return nil, err
		}
		zeroLayers(r)
	}
	return r, nil
}

// inject makes one drift as the intruder, against the resource's current
// ID as the tenant's state records it.
func inject(ctx context.Context, d *daemon, tgt driftTarget, n int) injection {
	in := injection{target: tgt}
	ws, err := d.mgr.Get(tgt.tenant)
	if err != nil {
		in.err = err
		return in
	}
	rs := ws.DB().Snapshot().Get(tgt.addr)
	if rs == nil {
		in.err = fmt.Errorf("%s: %s not in state", tgt.tenant, tgt.addr)
		return in
	}
	in.id = rs.ID
	if tgt.del {
		in.err = d.sim.Delete(ctx, tgt.typ, rs.ID, driftIntruder)
	} else {
		_, in.err = d.sim.Update(ctx, cloud.UpdateRequest{
			Type: tgt.typ, ID: rs.ID, Principal: driftIntruder,
			Attrs: map[string]eval.Value{"name": eval.String(fmt.Sprintf("drift-%d", n))},
		})
	}
	return in
}

// awaitRepairs waits until the activity log after seq holds a repair
// event for every injection, then lets it settle so a stray extra write
// lands in the log the checks read. It reads only the log's head sequence
// (no cloud or HTTP calls).
func awaitRepairs(sim *cloud.Sim, after int64, injected int) bool {
	deadline := time.Now().Add(driftQuiesce)
	for time.Now().Before(deadline) {
		if sim.LastSeq()-after >= int64(2*injected) {
			time.Sleep(driftSettle)
			return true
		}
		time.Sleep(2 * time.Millisecond)
	}
	return false
}

// driftLog reads the activity log after seq and pairs each injection with
// its repair: the tenant principal's update of the renamed resource, or
// its create of the same type after a delete. Any other tenant write is a
// write to a resource that did not drift.
func driftLog(ctx context.Context, r *result, sim *cloud.Sim, after int64, injs []injection) ([]float64, error) {
	evs, err := sim.Activity(ctx, after)
	if err != nil {
		return nil, err
	}
	tenantOf := map[string]string{}
	for _, in := range injs {
		r.attempted++
		if in.err != nil {
			r.check(false, "injection on %s %s failed: %v", in.target.tenant, in.target.addr, in.err)
			continue
		}
		tenantOf[in.id] = in.target.tenant
	}
	type open struct{ at time.Time }
	renamed := map[string]open{}   // resource id -> injection
	deleted := map[string][]open{} // tenant/type -> injections
	var ttr []float64
	for _, e := range evs {
		if e.Principal == driftIntruder {
			switch e.Op {
			case cloud.OpUpdate:
				renamed[e.ID] = open{e.Time}
			case cloud.OpDelete:
				k := tenantOf[e.ID] + "/" + e.Type
				deleted[k] = append(deleted[k], open{e.Time})
			}
			continue
		}
		switch {
		case e.Op == cloud.OpUpdate && renamed[e.ID] != (open{}):
			ttr = append(ttr, ms(e.Time.Sub(renamed[e.ID].at)))
			delete(renamed, e.ID)
		case e.Op == cloud.OpCreate && len(deleted[e.Principal+"/"+e.Type]) > 0:
			k := e.Principal + "/" + e.Type
			ttr = append(ttr, ms(e.Time.Sub(deleted[k][0].at)))
			deleted[k] = deleted[k][1:]
		default:
			r.check(false, "%s wrote %s %s %s, which did not drift", e.Principal, e.Op, e.Type, e.ID)
		}
	}
	for id := range renamed {
		r.check(false, "rename of %s (%s) never repaired", id, tenantOf[id])
	}
	for k, v := range deleted {
		for range v {
			r.check(false, "delete in %s never repaired", k)
		}
	}
	return ttr, nil
}

// checkDeclared confirms every target is back at its declared value: a
// renamed resource carries its declared name, a deleted load balancer is
// live again under the ID the tenant's state records.
func checkDeclared(ctx context.Context, r *result, d *daemon, renames, deletes []driftTarget) error {
	for _, tgt := range append(append([]driftTarget(nil), renames...), deletes...) {
		ws, err := d.mgr.Get(tgt.tenant)
		if err != nil {
			return err
		}
		rs := ws.DB().Snapshot().Get(tgt.addr)
		if !r.check(rs != nil, "%s: %s missing from state", tgt.tenant, tgt.addr) {
			continue
		}
		live, err := d.sim.Get(ctx, tgt.typ, rs.ID)
		if !r.check(err == nil, "%s: %s (%s) not live: %v", tgt.tenant, tgt.addr, rs.ID, err) {
			continue
		}
		if !tgt.del {
			got := live.Attrs["name"].AsString()
			r.check(got == tgt.declared, "%s: %s name %q, declared %q", tgt.tenant, tgt.addr, got, tgt.declared)
		}
	}
	return nil
}

// reconcileLayers reads the reconcilers' counters over the API and the
// time-to-detect histogram from /metrics.
func reconcileLayers(ctx context.Context, r *result, d *daemon, names []string, drifts int) error {
	var scoped, full, failures, suppressed, dropped int64
	for _, n := range names {
		st, err := d.client.ReconcilerStatus(ctx, n)
		if err != nil {
			return err
		}
		scoped += st.ScopedScans
		full += st.FullScans
		failures += st.RepairFailures
		suppressed += st.Suppressed
		dropped += st.EventsDropped
	}
	text, err := d.client.Metrics(ctx)
	if err != nil {
		return err
	}
	sum, count := promSum(text, "reconcile_ttd_ms")
	r.layer("reconcile.ttd_ms", perOp(sum, int(count)), "ms")
	r.layer("reconcile.scoped_scans_per_drift", perOp(float64(scoped), drifts), "count")
	r.layer("reconcile.full_scans", float64(full), "count")
	r.layer("reconcile.repair_failures", float64(failures), "count")
	r.layer("reconcile.suppressed", float64(suppressed), "count")
	r.layer("reconcile.events_dropped", float64(dropped), "count")
	return nil
}

// promSum adds up a summary's _sum and _count series across labels in a
// Prometheus text exposition.
func promSum(text, name string) (sum, count float64) {
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		fields := strings.Fields(line)
		if len(fields) != 2 {
			continue
		}
		series, _, _ := strings.Cut(fields[0], "{")
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			continue
		}
		switch series {
		case name + "_sum":
			sum += v
		case name + "_count":
			count += v
		}
	}
	return sum, count
}
