package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"cloudless/internal/cloud"
	"cloudless/internal/jobs"
	"cloudless/internal/provider"
	"cloudless/internal/server"
	"cloudless/internal/statedb"
	"cloudless/internal/workload"
)

// tenant-mix: many independent tenants use the daemon over HTTP. Sessions
// arrive on an open-loop seeded Poisson schedule. A preview session
// writes: create workspace -> plan -> apply the reviewed plan -> destroy ->
// delete workspace. A review session reads a long-lived tenant: plan ->
// plan artifact -> scan -> state.
//
// The timed daemon keeps no data dir: with the crash-safe deployment
// (fsynced job journal, wal state) session latency on a shared disk varied
// by more than 40% of its median from run to run, too much for any bound.
// Traced runs measure the durable path on its own: walProbe runs preview
// sessions one at a time on a crash-safe daemon.
const (
	tenantReviewers = 8    // long-lived, pre-deployed review tenants
	tenantRate      = 16.0 // nominal offered sessions per second
	// tenantPreviewFrac of the sessions are previews: reads outnumber
	// writes two to one, so the median falls among review sessions and the
	// tail among previews, not in the gap between the two.
	tenantPreviewFrac = 1.0 / 3
	// tenantLimitMs is the session latency limit at p99 (by the percentile
	// rule) that a ladder step must meet.
	tenantLimitMs = 1000.0
	// tenantMainFrac of the measured time runs at the nominal rate; the
	// rest climbs the capacity ladder.
	tenantMainFrac = 0.75
)

// tenantLadder is the fixed ladder of offered rates, in sessions per second.
var tenantLadder = []float64{16, 32, 64}

type session struct {
	due     time.Duration // from the phase start
	preview bool
	ws      string
	sources map[string]string // preview only
	want    int               // resources the tenant declares
}

// sessionOut is what one session observed.
type sessionOut struct {
	due, sent, done time.Time
	err             error    // the session failed or was refused
	broken          []string // invariants the outputs broke
	views           []jobs.View
	// Traced runs only: commits, provider runtime counters and (on a
	// durable daemon) data-dir growth of a preview tenant, read just before
	// deletion.
	journalBytes, stateBytes, commits int64
	prov                              provider.Stats
}

func reviewSources(j int) map[string]string {
	return workload.WebTier(fmt.Sprintf("rv%d", j), 2, 5)
}

// tenantSchedule draws a phase's sessions: rate*dur arrivals at seeded
// uniform times (a Poisson process given its count), a fixed share of them
// previews with sizes from a fixed cycle, in seeded order. Only the order
// and timing depend on the seed, so every seed offers the same work.
func tenantSchedule(rng *rand.Rand, rate float64, dur time.Duration, phase string) []session {
	n := int(rate * dur.Seconds())
	due := arrivals(rng, n, dur)
	kinds := make([]bool, n)
	for i := 0; i < int(tenantPreviewFrac*float64(n)); i++ {
		kinds[i] = true
	}
	rng.Shuffle(n, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	out := make([]session, n)
	previews, reviews := 0, 0
	for i := range out {
		s := session{due: due[i], preview: kinds[i]}
		if s.preview {
			s = previewSession(fmt.Sprintf("pv%s%d", phase, i), previews, due[i])
			previews++
		} else {
			s.ws = fmt.Sprintf("rv-%d", reviews%tenantReviewers)
			reviews++
			s.want = 3 + 2 + 2*5
		}
		out[i] = s
	}
	return out
}

// previewSession is the k-th preview of a schedule: sizes cycle through
// 1-2 subnets and 1-3 VMs (6 to 11 resources).
func previewSession(name string, k int, due time.Duration) session {
	subnets, vms := 1+k%2, 1+(k/2)%3
	return session{
		due: due, preview: true, ws: name,
		sources: workload.WebTier(name, subnets, vms),
		want:    3 + subnets + 2*vms,
	}
}

// arrivals returns n sorted offsets drawn uniformly from [0, dur): the
// arrival times of a Poisson process conditioned on n arrivals.
func arrivals(rng *rand.Rand, n int, dur time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(rng.Int63n(int64(dur)))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func tenantMix(cfg runCfg) (*result, error) {
	ctx := context.Background()
	r := &result{}
	var d *daemon
	for i := 0; i < cfg.setupRep; i++ {
		if d != nil {
			d.stop()
		}
		start := time.Now()
		var err error
		if d, err = startDaemon("", cfg.tr); err != nil {
			return nil, err
		}
		for j := 0; j < tenantReviewers; j++ {
			if err := d.deploy(ctx, fmt.Sprintf("rv-%d", j), reviewSources(j)); err != nil {
				d.stop()
				return nil, fmt.Errorf("tenant set-up: %w", err)
			}
		}
		r.setup = append(r.setup, time.Since(start))
	}
	defer d.stop()
	cfg.tr.take()
	reviewers := make([]string, tenantReviewers)
	for j := range reviewers {
		reviewers[j] = fmt.Sprintf("rv-%d", j)
	}

	rng := rand.New(rand.NewSource(cfg.seed))
	mainDur := time.Duration(tenantMainFrac * float64(cfg.seconds))
	sched := tenantSchedule(rng, tenantRate, mainDur, "m")
	logFrom := d.sim.LastSeq()
	simFrom, provFrom, procFrom := d.sim.Metrics(), d.providerStats(reviewers), sampleProc()
	outs := runSchedule(ctx, d, sched, cfg.tr != nil)
	procTo, simTo := sampleProc(), d.sim.Metrics()
	spans := cfg.tr.take() // the ladder below is not part of the window
	if cfg.tr != nil {
		serverLayers(r, d, spans) // before the ladder adds to its counters
	}
	r.heapMB = liveHeapMB()

	var lat, late []float64
	var views []jobs.View
	provTo := d.providerStats(reviewers)
	completed := 0
	for i, o := range outs {
		r.attempted++
		l, lt := openLoop(o.due, o.sent, o.done)
		late = append(late, ms(lt))
		views = append(views, o.views...)
		if !r.session(sched[i], o) {
			lat = append(lat, math.Inf(1))
			continue
		}
		completed++
		lat = append(lat, ms(l))
		provTo = addStats(provTo, o.prov)
	}
	// A destroyed preview leaves nothing live under its principal.
	leftovers, err := liveByPrincipal(ctx, d.sim, logFrom)
	if err != nil {
		return nil, err
	}
	for _, s := range sched {
		if s.preview {
			r.check(leftovers[s.ws] == 0, "preview %s left %d live resources", s.ws, leftovers[s.ws])
		}
	}

	r.setOp(lat, 99)
	r.cpuPerOp = cpuPerOp(procFrom, procTo, completed)
	r.callsPerOp = perOp(float64(simTo.Calls-simFrom.Calls), completed)
	r.add("session_p50_ms", r.op.P50, "ms", fmt.Sprintf("%s, from the scheduled arrival at %.0f sessions/s", distNote(r.op), tenantRate))
	r.add(fmt.Sprintf("session_p%.4g_ms", r.op.TailPct), r.op.Tail, "ms", "session_p99_ms by the percentile rule")

	// Capacity ladder: each rate for an equal share of the remaining time.
	// Its sessions are checked like the others but time only the verdict.
	stepDur := time.Duration((1 - tenantMainFrac) * float64(cfg.seconds) / float64(len(tenantLadder)))
	var steps []ladderStep
	for k, rate := range tenantLadder {
		ss := tenantSchedule(rng, rate, stepDur, fmt.Sprintf("l%d-", k))
		step := ladderStep{Rate: rate}
		for i, o := range runSchedule(ctx, d, ss, false) {
			r.attempted++
			if !r.session(ss[i], o) {
				step.Lat = append(step.Lat, math.Inf(1))
				continue
			}
			l, _ := openLoop(o.due, o.sent, o.done)
			step.Lat = append(step.Lat, ms(l))
		}
		dd, ok := stepPasses(step, tenantLimitMs)
		r.add(fmt.Sprintf("ladder_%g_per_s", rate), dd.Tail, "ms",
			fmt.Sprintf("p%.2f of n=%d, limit %.0f ms: pass=%v", dd.TailPct, dd.N, tenantLimitMs, ok))
		steps = append(steps, step)
		if !ok {
			break // higher rates cannot pass, and would only deepen the backlog
		}
	}
	r.add("max_sessions_per_s", maxSustainedRate(steps, tenantLimitMs), "1/s",
		fmt.Sprintf("highest ladder rate meeting p99 <= %.0f ms with no growing backlog", tenantLimitMs))
	r.add("cloud_calls_per_op", r.callsPerOp, "count", "simulator calls per session")
	r.add("cloud_log_events", float64(d.sim.LastSeq()), "count", "activity log length at the end of the run")

	if cfg.tr != nil {
		busy, _ := cloudBusy(spans)
		jobLayers(r, views)
		cloudLayers(r, simFrom, simTo, cloud.Metrics{}, provFrom, provTo, busy, completed)
		runtimeLayers(r, procFrom, procTo, completed)
		r.layer("loadgen.late_p99_ms", summarize(late, 99).Tail, "ms")
		var firstPreview map[string]string
		for _, s := range sched {
			if s.preview {
				firstPreview = s.sources
				break
			}
		}
		if firstPreview != nil {
			if err := configLayers(r, firstPreview); err != nil {
				return nil, err
			}
		}
		ws, err := d.mgr.Get(reviewers[0])
		if err != nil {
			return nil, err
		}
		if err := walProbe(ctx, r, ws.DB()); err != nil {
			return nil, err
		}
		zeroLayers(r)
	}
	return r, nil
}

// runSchedule plays sessions open-loop: each is launched at its due time
// whatever the others are doing, and all are waited for.
func runSchedule(ctx context.Context, d *daemon, sched []session, traced bool) []sessionOut {
	outs := make([]sessionOut, len(sched))
	var wg sync.WaitGroup
	start := time.Now()
	for i := range sched {
		due := start.Add(sched[i].due)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			o := &outs[i]
			o.due, o.sent = due, time.Now()
			if sched[i].preview {
				runPreview(ctx, d, sched[i], o, traced)
			} else {
				runReview(ctx, d, sched[i], o)
			}
			o.done = time.Now()
		}(i, due)
	}
	wg.Wait()
	return outs
}

// session counts one finished session: false (and one failed operation)
// when it failed, was refused, or broke an invariant.
func (r *result) session(s session, o sessionOut) bool {
	for _, b := range o.broken {
		r.broke("session %s: %s", s.ws, b)
	}
	if o.err != nil || len(o.broken) > 0 {
		r.failed++
		return false
	}
	return true
}

// runPreview is one write session on a fresh preview tenant.
func runPreview(ctx context.Context, d *daemon, s session, o *sessionOut, traced bool) {
	d.call()
	if _, err := d.client.CreateWorkspace(ctx, server.CreateWorkspaceRequest{Name: s.ws, Sources: s.sources}); err != nil {
		o.err = err
		return
	}
	st, v, err := d.runJob(ctx, s.ws, server.JobRequest{Kind: "plan"})
	o.views = append(o.views, v)
	if err != nil {
		o.err = err
		return
	}
	plan, err := server.ResultAs[server.PlanSummary](st)
	if err != nil || plan.Creates != s.want || plan.Pending() != s.want {
		o.broken = append(o.broken, fmt.Sprintf("plan creates %d of %d declared (%v)", plan.Creates, s.want, err))
		o.err = fmt.Errorf("bad plan")
		return
	}
	st, v, err = d.runJob(ctx, s.ws, server.JobRequest{Kind: "apply", PlanJob: st.ID})
	o.views = append(o.views, v)
	if err != nil {
		o.err = err
		return
	}
	// The apply ran the reviewed plan, all of it.
	if sum, err := server.ResultAs[server.ApplySummary](st); err != nil || sum.Applied != plan.Pending() || sum.Failed != 0 {
		o.broken = append(o.broken, fmt.Sprintf("apply summary %+v does not match the reviewed plan (%d changes, %v)", sum, plan.Pending(), err))
	}
	st, v, err = d.runJob(ctx, s.ws, server.JobRequest{Kind: "destroy"})
	o.views = append(o.views, v)
	if err != nil {
		o.err = err
		return
	}
	if sum, err := server.ResultAs[server.ApplySummary](st); err != nil || sum.Applied != s.want || sum.Failed != 0 {
		o.broken = append(o.broken, fmt.Sprintf("destroy summary %+v, want %d deletes (%v)", sum, s.want, err))
	}
	if traced {
		if ws, err := d.mgr.Get(s.ws); err == nil {
			o.commits = ws.DB().CommitCount()
			o.prov = ws.Provider().Stats()
		}
		if d.dir != "" {
			o.journalBytes = dirSize(filepath.Join(d.dir, s.ws, "jobs.journal"))
			o.stateBytes = dirSize(filepath.Join(d.dir, s.ws, "state.wal"))
		}
	}
	d.call()
	if err := d.client.DeleteWorkspace(ctx, s.ws); err != nil {
		o.err = err
	}
}

// runReview is one read session on a long-lived, converged tenant.
func runReview(ctx context.Context, d *daemon, s session, o *sessionOut) {
	st, v, err := d.runJob(ctx, s.ws, server.JobRequest{Kind: "plan"})
	o.views = append(o.views, v)
	if err != nil {
		o.err = err
		return
	}
	if plan, err := server.ResultAs[server.PlanSummary](st); err != nil || plan.Pending() != 0 {
		o.broken = append(o.broken, fmt.Sprintf("converged tenant plans %d changes (%v)", plan.Pending(), err))
	}
	d.call()
	art, err := d.client.PlanArtifact(ctx, s.ws, st.ID)
	if err != nil {
		o.err = err
		return
	}
	if art.Pending() != 0 {
		o.broken = append(o.broken, fmt.Sprintf("plan artifact has %d changes", art.Pending()))
	}
	st, v, err = d.runJob(ctx, s.ws, server.JobRequest{Kind: "scan"})
	o.views = append(o.views, v)
	if err != nil {
		o.err = err
		return
	}
	// The scan sees every tenant's resources in the shared cloud; only
	// items on the tenant's own addresses are drift.
	rep, err := server.ResultAs[server.DriftSummary](st)
	drifted := 0
	for _, it := range rep.Items {
		if it.Addr != "" {
			drifted++
		}
	}
	if err != nil || drifted != 0 {
		o.broken = append(o.broken, fmt.Sprintf("scan of an undrifted tenant found %d drifted resources (%v)", drifted, err))
	}
	d.call()
	state, err := d.client.State(ctx, s.ws)
	if err != nil {
		o.err = err
		return
	}
	if state.Len() != s.want {
		o.broken = append(o.broken, fmt.Sprintf("state has %d resources, want %d", state.Len(), s.want))
	}
}

// jobLayers reports queue wait (Started - Submitted) and run time per job
// kind, and failed jobs.
func jobLayers(r *result, views []jobs.View) {
	wait, run := map[string][]float64{}, map[string][]float64{}
	failed := 0
	for _, v := range views {
		if v.ID == "" {
			continue
		}
		if v.Status == jobs.StatusFailed {
			failed++
		}
		if v.Started.IsZero() || v.Finished.IsZero() {
			continue
		}
		wait[v.Kind] = append(wait[v.Kind], ms(v.Started.Sub(v.Submitted)))
		run[v.Kind] = append(run[v.Kind], ms(v.Finished.Sub(v.Started)))
	}
	for _, k := range jobKinds {
		w := summarize(wait[k], 99)
		r.layer("jobs.wait_ms."+k+".p50", w.P50, "ms")
		r.layer("jobs.wait_ms."+k+".p99", w.Tail, "ms")
		r.layer("jobs.run_ms."+k, median(run[k]), "ms")
	}
	r.layer("jobs.failed", float64(failed), "count")
}

// dirSize is the total size of the regular files under path (a file or a
// directory); 0 when it does not exist.
func dirSize(path string) int64 {
	var n int64
	_ = filepath.Walk(path, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n
}

// liveByPrincipal replays the activity log after seq and counts, per
// principal, the resources it created that are still live.
func liveByPrincipal(ctx context.Context, sim *cloud.Sim, after int64) (map[string]int, error) {
	evs, err := sim.Activity(ctx, after)
	if err != nil {
		return nil, err
	}
	owner := map[string]string{}
	for _, e := range evs {
		switch e.Op {
		case cloud.OpCreate:
			owner[e.ID] = e.Principal
		case cloud.OpDelete:
			delete(owner, e.ID)
		}
	}
	live := map[string]int{}
	for _, p := range owner {
		live[p]++
	}
	return live, nil
}

// walProbeSessions is how many preview sessions walProbe runs.
const walProbeSessions = 12

// walProbe measures the crash-safe path the timed daemon leaves out: preview
// sessions one at a time on a daemon with a data dir (fsynced job journal,
// wal state). It reports the data-dir growth per job and per commit, a
// durable session's latency, and a one-resource wal commit on a DB holding
// live's state.
func walProbe(ctx context.Context, r *result, live *statedb.DB) error {
	dir, err := tempDir("wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	d, err := startDaemon(dir, nil)
	if err != nil {
		return err
	}
	defer d.stop()
	var journal, stateB, commits int64
	var lat []float64
	for k := 0; k < walProbeSessions; k++ {
		s := previewSession(fmt.Sprintf("wal%d", k), k, 0)
		var o sessionOut
		start := time.Now()
		runPreview(ctx, d, s, &o, true)
		r.attempted++
		if !r.session(s, o) {
			continue
		}
		lat = append(lat, ms(time.Since(start)))
		journal += o.journalBytes
		stateB += o.stateBytes
		commits += o.commits
	}
	r.layer("wal.journal_bytes_per_job", perOp(float64(journal), 3*len(lat)), "bytes")
	r.layer("wal.state_bytes_per_commit", perOp(float64(stateB), int(commits)), "bytes")
	r.layer("wal.durable_session_ms", median(lat), "ms")
	return statedbLayers(r, live, live.Snapshot(), "wal", filepath.Join(dir, "statedb-probe"))
}
