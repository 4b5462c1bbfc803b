package main

import (
	"context"
	"sync"
	"time"

	"cloudless/internal/cloud"
)

// span is one recorded call into a layer, timed from the benchmark's side.
type span struct {
	name       string
	start, end time.Time
}

// tracer keeps the traced run's spans in memory. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

func (t *tracer) record(name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{name, start, end})
	t.mu.Unlock()
}

// timed runs fn, records it as a span named name, and returns its duration.
// The duration is measured in untraced runs too: end-to-end metrics need it.
func (t *tracer) timed(name string, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	t.record(name, start, end)
	return end.Sub(start)
}

// take returns the spans recorded so far and forgets them.
func (t *tracer) take() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// cloudWait is the span name of an activity long-poll: the caller idles in
// it, so it counts neither as cloud busy time nor as a child of a caller's
// span.
const cloudWait = "cloud.wait_activity"

// timedCloud is the traced run's cloud decorator: every call into the
// simulator becomes a "cloud.<op>" span. It forwards every optional
// extension the program type-asserts for (batching, pagination, activity
// long-poll), so the traced run takes the same code paths as the untraced
// one.
type timedCloud struct {
	sim *cloud.Sim
	tr  *tracer
}

var (
	_ cloud.Interface      = (*timedCloud)(nil)
	_ cloud.BatchCreator   = (*timedCloud)(nil)
	_ cloud.BatchGetter    = (*timedCloud)(nil)
	_ cloud.PageLister     = (*timedCloud)(nil)
	_ cloud.ActivityWaiter = (*timedCloud)(nil)
)

// cloudFor returns what a workspace should be given as its cloud: the raw
// simulator when untraced, the timing decorator when traced.
func cloudFor(sim *cloud.Sim, tr *tracer) cloud.Interface {
	if tr == nil {
		return sim
	}
	return &timedCloud{sim: sim, tr: tr}
}

func (c *timedCloud) span(op string) func() {
	start := time.Now()
	return func() { c.tr.record("cloud."+op, start, time.Now()) }
}

func (c *timedCloud) Create(ctx context.Context, req cloud.CreateRequest) (*cloud.Resource, error) {
	defer c.span("create")()
	return c.sim.Create(ctx, req)
}

func (c *timedCloud) Get(ctx context.Context, typ, id string) (*cloud.Resource, error) {
	defer c.span("get")()
	return c.sim.Get(ctx, typ, id)
}

func (c *timedCloud) Update(ctx context.Context, req cloud.UpdateRequest) (*cloud.Resource, error) {
	defer c.span("update")()
	return c.sim.Update(ctx, req)
}

func (c *timedCloud) Delete(ctx context.Context, typ, id, principal string) error {
	defer c.span("delete")()
	return c.sim.Delete(ctx, typ, id, principal)
}

func (c *timedCloud) List(ctx context.Context, typ, region string) ([]*cloud.Resource, error) {
	defer c.span("list")()
	return c.sim.List(ctx, typ, region)
}

func (c *timedCloud) Activity(ctx context.Context, afterSeq int64) ([]cloud.Event, error) {
	defer c.span("activity")()
	return c.sim.Activity(ctx, afterSeq)
}

func (c *timedCloud) Health(ctx context.Context, typ, id string) (*cloud.HealthReport, error) {
	defer c.span("health")()
	return c.sim.Health(ctx, typ, id)
}

func (c *timedCloud) BatchCreate(ctx context.Context, reqs []cloud.CreateRequest) ([]cloud.BatchResult, error) {
	defer c.span("batch_create")()
	return c.sim.BatchCreate(ctx, reqs)
}

func (c *timedCloud) BatchGet(ctx context.Context, keys []cloud.ResourceKey) ([]cloud.BatchResult, error) {
	defer c.span("batch_get")()
	return c.sim.BatchGet(ctx, keys)
}

func (c *timedCloud) ListPage(ctx context.Context, typ, region string, limit int, pageToken string) (*cloud.ListPageResult, error) {
	defer c.span("list_page")()
	return c.sim.ListPage(ctx, typ, region, limit, pageToken)
}

func (c *timedCloud) WaitActivity(ctx context.Context, afterSeq int64, wait time.Duration) ([]cloud.Event, error) {
	start := time.Now()
	defer func() { c.tr.record(cloudWait, start, time.Now()) }()
	return c.sim.WaitActivity(ctx, afterSeq, wait)
}

// cloudBusy sums the cloud spans (long-poll waits excluded) and returns
// them as intervals for self-time accounting.
func cloudBusy(spans []span) (time.Duration, []interval) {
	var busy time.Duration
	var ivs []interval
	for _, s := range spans {
		if len(s.name) < 6 || s.name[:6] != "cloud." || s.name == cloudWait {
			continue
		}
		busy += s.end.Sub(s.start)
		ivs = append(ivs, interval{s.start, s.end})
	}
	return busy, ivs
}
