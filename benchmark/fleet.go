package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"cloudless"
	"cloudless/internal/cloud"
	"cloudless/internal/provider"
	"cloudless/internal/workload"
)

// fleet-edit: one engineer owns a ~2k-instance stack and runs a closed
// loop of SetVar edit -> Replan -> Apply through the cloudless.Stack
// facade. Every fleetColdEvery-th edit is followed by a cold plan
// (InvalidateReplanCache + Replan), the cost of a re-upload or restart.
const (
	fleetDecls     = 1333 // workload.RandomDAG declarations: ~2k instances
	fleetEditVars  = 8    // variables that drive the edit set
	fleetColdEvery = 20
	// fleetEdits is the fixed amount of work the figures cover; the loop
	// always runs at least this many edits. The live heap is read after
	// fleetHeapAt of them.
	fleetEdits  = 150
	fleetHeapAt = 30
)

// fleetSources is the seeded stack: a random DAG plus an edit set of VMs
// whose user_data each follow one variable.
func fleetSources(seed int64) map[string]string {
	files := workload.RandomDAG(fleetDecls, seed)
	var b strings.Builder
	for k := 0; k < fleetEditVars; k++ {
		fmt.Fprintf(&b, `
variable "edit_%[1]d" {
  type    = string
  default = "rev-0"
}

resource "aws_network_interface" "edit%[1]d" {
  name      = "edit-nic-%[1]d"
  subnet_id = aws_subnet.r[%[1]d].id
}

resource "aws_virtual_machine" "edit%[1]d" {
  name      = "edit-vm-%[1]d"
  nic_ids   = [aws_network_interface.edit%[1]d.id]
  user_data = var.edit_%[1]d
}
`, k)
	}
	files["edit.ccl"] = b.String()
	return files
}

// buildFleet deploys the stack on a fresh simulator and warms the replan
// cache; the returned stack's next Replan sees no change.
func buildFleet(ctx context.Context, files map[string]string, tr *tracer) (*cloud.Sim, *cloudless.Stack, error) {
	sim := fastSim()
	st, err := cloudless.Open(cloudless.Options{Sources: files, Cloud: cloudFor(sim, tr), Principal: "fleet"})
	if err != nil {
		return nil, nil, err
	}
	p, err := st.Replan(ctx)
	if err == nil {
		var res *cloudless.ApplyResult
		res, _, err = st.Apply(ctx, p, cloudless.ApplyOptions{})
		if err == nil && len(res.Errors) > 0 {
			err = fmt.Errorf("deploy: %d resources failed", len(res.Errors))
		}
	}
	if err == nil {
		p, err = st.Replan(ctx)
		if err == nil && p.PendingCount() != 0 {
			err = fmt.Errorf("deploy: replan after deploy has %d pending changes", p.PendingCount())
		}
	}
	if err != nil {
		st.Close()
		return nil, nil, fmt.Errorf("fleet set-up: %w", err)
	}
	return sim, st, nil
}

func fleetEdit(cfg runCfg) (*result, error) {
	ctx := context.Background()
	r := &result{}
	files := fleetSources(cfg.seed)
	var sim *cloud.Sim
	var st *cloudless.Stack
	for i := 0; i < cfg.setupRep; i++ {
		if st != nil {
			st.Close()
		}
		start := time.Now()
		var err error
		if sim, st, err = buildFleet(ctx, files, cfg.tr); err != nil {
			return nil, err
		}
		r.setup = append(r.setup, time.Since(start))
	}
	defer st.Close()
	instances := len(st.Instances())
	cfg.tr.take() // set-up spans are not part of the window

	rng := rand.New(rand.NewSource(cfg.seed))
	var evaluated, replayed int
	// edit runs one SetVar -> Replan -> Apply and its checks, returning the
	// edit's latency and, every fleetColdEvery-th edit, the cold plan's.
	edit := func(n int) (lat, cold time.Duration, ok bool) {
		r.attempted++
		v := fmt.Sprintf("edit_%d", rng.Intn(fleetEditVars))
		var err error
		var applied *cloudless.ApplyResult
		var p *cloudless.Plan
		start := time.Now()
		cfg.tr.timed("config.setvar", func() { err = st.SetVar(v, fmt.Sprintf("rev-%d", n)) })
		if err == nil {
			cfg.tr.timed("plan.replan", func() { p, err = st.Replan(ctx) })
		}
		if err == nil {
			stats := st.ReplanStats()
			if n <= fleetEdits {
				evaluated += stats.Evaluated
				replayed += stats.Replayed
			}
			if !r.check(p.PendingCount() == 1, "edit %d: replan has %d pending changes, want 1", n, p.PendingCount()) {
				return 0, 0, false
			}
			cfg.tr.timed("apply.apply", func() { applied, _, err = st.Apply(ctx, p, cloudless.ApplyOptions{}) })
		}
		if !r.check(err == nil, "edit %d: %v", n, err) {
			return 0, 0, false
		}
		lat = time.Since(start)
		if !r.check(len(applied.Errors) == 0, "edit %d: apply failed: %v", n, applied.Errors) {
			return 0, 0, false
		}
		// The post-apply replan must be a no-op, and a cold plan of the same
		// state must match it exactly.
		after, err := st.Replan(ctx)
		if !r.check(err == nil && after.PendingCount() == 0, "edit %d: post-apply replan not a no-op (err %v)", n, err) {
			return 0, 0, false
		}
		if n%fleetColdEvery == 0 {
			var p *cloudless.Plan
			st.InvalidateReplanCache()
			cold = cfg.tr.timed("plan.cold", func() { p, err = st.Replan(ctx) })
			if !r.check(err == nil && planDigest(p) == planDigest(after),
				"edit %d: cold plan differs from the replan (err %v)", n, err) {
				return 0, 0, false
			}
		}
		return lat, cold, true
	}

	// The figures cover the first fleetEdits edits, a fixed amount of work:
	// the live heap grows through a run, so GC pacing and per-edit cost
	// drift, and a time-bounded count would make them depend on the host's
	// speed. Edits past it until the deadline are checked but not timed.
	var edits, colds []float64
	var spans []span
	var procTo procSample
	var simTo cloud.Metrics
	var provTo provider.Stats
	var pausedCPU time.Duration // the forced GC's CPU, excluded
	simFrom, provFrom, procFrom := sim.Metrics(), st.Provider().Stats(), sampleProc()
	deadline := time.Now().Add(cfg.seconds)
	for n := 1; n <= fleetEdits || time.Now().Before(deadline); n++ {
		lat, cold, ok := edit(n)
		if n > fleetEdits {
			continue
		}
		if ok {
			edits = append(edits, ms(lat))
			if cold > 0 {
				colds = append(colds, ms(cold))
			}
		}
		if n == fleetHeapAt {
			c0 := sampleProc().cpu
			r.heapMB = liveHeapMB()
			pausedCPU = sampleProc().cpu - c0
		}
		if n == fleetEdits {
			procTo, simTo, provTo = sampleProc(), sim.Metrics(), st.Provider().Stats()
			procTo.cpu -= pausedCPU
			spans = cfg.tr.take()
		}
	}

	ops := len(edits)
	r.setOp(edits, 95)
	r.cpuPerOp = cpuPerOp(procFrom, procTo, ops)
	r.callsPerOp = perOp(float64(simTo.Calls-simFrom.Calls), ops)
	cold := summarize(colds, 95)
	r.add("edit_p50_ms", r.op.P50, "ms", distNote(r.op))
	r.add(fmt.Sprintf("edit_p%.4g_ms", r.op.TailPct), r.op.Tail, "ms", "edit_p95_ms by the percentile rule")
	r.add("cold_plan_ms", cold.P50, "ms", fmt.Sprintf("median of %d cold plans of %d instances", cold.N, instances))
	r.add("cloud_calls_per_op", r.callsPerOp, "count", "simulator calls per edit")

	if cfg.tr != nil {
		busy, ivs := cloudBusy(spans)
		coldSelf := median(spanSelf(spans, "plan.cold", ivs))
		r.layer("plan.cold_self_ms", coldSelf, "ms")
		r.layer("plan.cold_us_per_instance", perOp(1000*coldSelf, instances), "us")
		r.layer("plan.replan_self_ms", median(spanSelf(spans, "plan.replan", ivs)), "ms")
		r.layer("plan.evaluated_per_edit", perOp(float64(evaluated), fleetEdits), "count")
		r.layer("plan.replayed_per_edit", perOp(float64(replayed), fleetEdits), "count")
		r.layer("apply.self_ms", median(spanSelf(spans, "apply.apply", ivs)), "ms")
		cloudLayers(r, simFrom, simTo, cloud.Metrics{}, provFrom, provTo, busy, ops)
		runtimeLayers(r, procFrom, procTo, ops)
		if err := configLayers(r, files); err != nil {
			return nil, err
		}
		if err := statedbLayers(r, st.DB(), st.DB().Snapshot(), cloudless.BackendMemory, ""); err != nil {
			return nil, err
		}
		zeroLayers(r)
	}
	return r, nil
}
