package jobs

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func testJob(tenant, id string) *Job {
	return &Job{id: id, tenant: tenant, done: make(chan struct{})}
}

// TestSFQLightTenantOvertakesBacklog is the deterministic fairness proof:
// a tenant that saturated the queue with 100 jobs before a light tenant
// showed up cannot delay the light tenant's k-th job beyond its fair share —
// with equal weights, one heavy dispatch per light dispatch.
func TestSFQLightTenantOvertakesBacklog(t *testing.T) {
	s := newSFQ()
	for i := 0; i < 100; i++ {
		s.push("heavy", 1, 1, testJob("heavy", fmt.Sprintf("h%d", i)))
	}
	for i := 0; i < 5; i++ {
		s.push("light", 1, 1, testJob("light", fmt.Sprintf("l%d", i)))
	}
	pos := map[string]int{}
	for i := 0; s.len() > 0; i++ {
		pos[s.pop().id] = i
	}
	// light's k-th job has finish tag k+1, tying heavy's k-th (which wins
	// the tie on submission order), so it must dispatch by position 2k+1.
	for k := 0; k < 5; k++ {
		id := fmt.Sprintf("l%d", k)
		if worst := 2*k + 1; pos[id] > worst {
			t.Errorf("light job %s dispatched at %d, fair-share bound is %d", id, pos[id], worst)
		}
	}
}

// TestSFQWeights: a weight-4 tenant gets ~4 dispatches for every 1 a
// weight-1 tenant gets while both stay backlogged.
func TestSFQWeights(t *testing.T) {
	s := newSFQ()
	for i := 0; i < 40; i++ {
		s.push("gold", 4, 1, testJob("gold", fmt.Sprintf("g%d", i)))
	}
	for i := 0; i < 40; i++ {
		s.push("bronze", 1, 1, testJob("bronze", fmt.Sprintf("b%d", i)))
	}
	gold := 0
	for i := 0; i < 20; i++ {
		if j := s.pop(); j.tenant == "gold" {
			gold++
		}
	}
	if gold < 14 || gold > 18 {
		t.Errorf("gold got %d of the first 20 slots, want ~16 (4:1 share)", gold)
	}
}

// TestSFQCostChargesVirtualTime: expensive jobs push their tenant's virtual
// clock further, so a tenant submitting one 10-cost apply yields the next
// slots to a tenant with cheap plans.
func TestSFQCostChargesVirtualTime(t *testing.T) {
	s := newSFQ()
	s.push("bulk", 1, 10, testJob("bulk", "big0"))
	s.push("bulk", 1, 10, testJob("bulk", "big1"))
	for i := 0; i < 5; i++ {
		s.push("interactive", 1, 1, testJob("interactive", fmt.Sprintf("q%d", i)))
	}
	// One bulk job dispatches (lowest seq at the shared start), then every
	// interactive job beats the second 10-cost one.
	var order []string
	for s.len() > 0 {
		order = append(order, s.pop().id)
	}
	if order[0] != "q0" && order[0] != "big0" {
		t.Fatalf("unexpected first dispatch %s", order[0])
	}
	if last := order[len(order)-1]; last != "big1" {
		t.Errorf("second bulk job dispatched at %v, want last", order)
	}
}

// TestSFQRemoveKeepsCharge: cancelling a queued job doesn't refund the
// tenant's virtual time.
func TestSFQRemoveKeepsCharge(t *testing.T) {
	s := newSFQ()
	j0, j1 := testJob("a", "a0"), testJob("a", "a1")
	s.push("a", 1, 1, j0)
	s.push("a", 1, 1, j1)
	if !s.remove(j0) {
		t.Fatal("remove missed a queued job")
	}
	if s.remove(j0) {
		t.Fatal("double remove succeeded")
	}
	if got := s.pop(); got != j1 {
		t.Fatalf("pop after remove = %v", got)
	}
	// a1 kept its second-slot finish tag: a fresh tenant's first job ties
	// it at best, it was not promoted to the front of virtual time.
	if s.len() != 0 {
		t.Fatal("queue not drained")
	}
}

// TestQueueRunsJobs: submit -> run -> result round-trip, including the job
// ID travelling in the work context.
func TestQueueRunsJobs(t *testing.T) {
	q := New(Options{Workers: 2, FixedAdmission: true})
	defer q.Shutdown(context.Background())
	j, err := q.Submit(Request{Tenant: "t", Kind: "echo", Fn: func(ctx context.Context) (any, error) {
		return "id=" + JobID(ctx), nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	view, err := j.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if view.Status != StatusSucceeded {
		t.Fatalf("status = %s (%s)", view.Status, view.Err)
	}
	res, err := j.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res != "id="+j.ID() {
		t.Fatalf("result = %v, want job id %s in context", res, j.ID())
	}
}

// TestQueueFairStartOrder runs the scheduler end to end with one worker:
// while a heavy tenant's backlog is parked, a light tenant's jobs start
// within their fair-share bound of arrival.
func TestQueueFairStartOrder(t *testing.T) {
	q := New(Options{Workers: 1, FixedAdmission: true})
	defer q.Shutdown(context.Background())

	var mu sync.Mutex
	var starts []string
	gate := make(chan struct{})
	record := func(tenant string) func(ctx context.Context) (any, error) {
		return func(ctx context.Context) (any, error) {
			<-gate
			mu.Lock()
			starts = append(starts, tenant)
			mu.Unlock()
			return nil, nil
		}
	}
	// The first submit may dispatch immediately (the worker is idle), so
	// park the worker on the gate while the rest of the backlog queues.
	var all []*Job
	submit := func(tenant string, n int) {
		for i := 0; i < n; i++ {
			j, err := q.Submit(Request{Tenant: tenant, Fn: record(tenant)})
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, j)
		}
	}
	submit("heavy", 1) // grabbed by the worker, blocks on gate
	time.Sleep(10 * time.Millisecond)
	submit("heavy", 30)
	submit("light", 4)
	close(gate)
	for _, j := range all {
		if _, err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}

	mu.Lock()
	defer mu.Unlock()
	lightSeen := 0
	for i, tenant := range starts {
		if tenant == "light" {
			lightSeen++
			// Fair share with equal weights: light's k-th start within
			// ~2k+2 dispatches (one heavy ran before light even arrived).
			if bound := 2*lightSeen + 1; i > bound {
				t.Errorf("light start #%d at dispatch %d, fair bound %d (order %v)",
					lightSeen, i, bound, starts)
			}
		}
	}
	if lightSeen != 4 {
		t.Fatalf("light ran %d jobs, want 4", lightSeen)
	}
}

// TestQueueBacklogAdmission: a tenant over its backlog limit gets the typed
// 429-able error while other tenants keep submitting.
func TestQueueBacklogAdmission(t *testing.T) {
	q := New(Options{Workers: 1, FixedAdmission: true, MaxQueuedPerTenant: 2})
	defer q.Shutdown(context.Background())
	gate := make(chan struct{})
	defer close(gate)
	blocked := func(ctx context.Context) (any, error) { <-gate; return nil, nil }

	if _, err := q.Submit(Request{Tenant: "a", Fn: blocked}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond) // let the worker park on it
	for i := 0; i < 2; i++ {
		if _, err := q.Submit(Request{Tenant: "a", Fn: blocked}); err != nil {
			t.Fatal(err)
		}
	}
	_, err := q.Submit(Request{Tenant: "a", Fn: blocked})
	var full *ErrQueueFull
	if !errors.As(err, &full) {
		t.Fatalf("over-backlog submit: got %v, want *ErrQueueFull", err)
	}
	if full.Tenant != "a" || full.Limit != 2 {
		t.Fatalf("ErrQueueFull = %+v", full)
	}
	if _, err := q.Submit(Request{Tenant: "b", Fn: blocked}); err != nil {
		t.Fatalf("other tenant blocked by a's backlog: %v", err)
	}
}

// TestQueueCancelDuringDispatch targets the claim window: a worker has
// popped the job (backlog already decremented) but is parked on the
// admission gate, so the job's status still reads "queued". Cancel here
// used to take the queued branch — double-decrementing the backlog and
// closing done a second time when the worker finished (panic). Now the
// claimed job's context is canceled and the worker resolves it exactly
// once, without running Fn.
func TestQueueCancelDuringDispatch(t *testing.T) {
	q := New(Options{Workers: 1, FixedAdmission: true})
	defer q.Shutdown(context.Background())

	// Occupy the single admission slot so the worker blocks in
	// gate.Acquire after claiming the job.
	if err := q.gate.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	slotHeld := true
	defer func() {
		if slotHeld {
			q.gate.Release()
		}
	}()

	ran := make(chan struct{}, 1)
	j, err := q.Submit(Request{Tenant: "t", Fn: func(ctx context.Context) (any, error) {
		ran <- struct{}{}
		return nil, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	// The worker has claimed the job once it leaves the scheduler.
	for deadline := time.Now().Add(5 * time.Second); q.QueuedLen() != 0; {
		if time.Now().After(deadline) {
			t.Fatal("worker never claimed the job")
		}
		time.Sleep(time.Millisecond)
	}

	if !q.Cancel(j.ID()) {
		t.Fatal("cancel missed the claimed job")
	}
	view, err := j.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if view.Status != StatusCanceled {
		t.Fatalf("claimed-then-canceled job status = %s, want canceled", view.Status)
	}
	select {
	case <-ran:
		t.Fatal("canceled job ran anyway")
	default:
	}
	q.mu.Lock()
	backlog := q.backlog["t"]
	q.mu.Unlock()
	if backlog != 0 {
		t.Fatalf("backlog after claimed cancel = %d, want 0 (admission corrupted)", backlog)
	}

	// The freed worker still dispatches future work.
	q.gate.Release()
	slotHeld = false
	j2, err := q.Submit(Request{Tenant: "t", Fn: func(ctx context.Context) (any, error) { return "ok", nil }})
	if err != nil {
		t.Fatal(err)
	}
	if view, err := j2.Wait(context.Background()); err != nil || view.Status != StatusSucceeded {
		t.Fatalf("post-cancel job: %v %s", err, view.Status)
	}
}

// TestQueueCancelStress races Cancel against claim/run/finish across
// tenants; under -race this flushes out double-close and double-decrement
// bugs in the dispatch window. Every job must resolve terminal and every
// backlog count must return to zero.
func TestQueueCancelStress(t *testing.T) {
	q := New(Options{Workers: 4, FixedAdmission: true})
	defer q.Shutdown(context.Background())

	var wg sync.WaitGroup
	all := make([]*Job, 0, 200)
	for i := 0; i < 200; i++ {
		j, err := q.Submit(Request{Tenant: fmt.Sprintf("t%d", i%4), Fn: func(ctx context.Context) (any, error) {
			return nil, ctx.Err()
		}})
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, j)
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			q.Cancel(id)
		}(j.ID())
	}
	wg.Wait()
	for _, j := range all {
		view, err := j.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !view.Status.Terminal() {
			t.Fatalf("job %s not terminal after cancel storm: %s", j.ID(), view.Status)
		}
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	for tenant, n := range q.backlog {
		if n != 0 {
			t.Errorf("tenant %s backlog = %d after drain, want 0", tenant, n)
		}
	}
}

// TestQueueTerminalRetention: terminal jobs are retained per tenant up to
// MaxFinishedPerTenant and then evicted oldest-first, so a long-running
// queue doesn't grow without bound.
func TestQueueTerminalRetention(t *testing.T) {
	q := New(Options{Workers: 1, FixedAdmission: true, MaxFinishedPerTenant: 3})
	defer q.Shutdown(context.Background())

	var ids []string
	for i := 0; i < 8; i++ {
		j, err := q.Submit(Request{Tenant: "t", Fn: func(ctx context.Context) (any, error) { return nil, nil }})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID())
	}
	if got := len(q.List("t")); got != 3 {
		t.Fatalf("retained %d terminal jobs, want 3", got)
	}
	if _, ok := q.Get(ids[0]); ok {
		t.Fatal("oldest terminal job survived past the retention cap")
	}
	if _, ok := q.Get(ids[len(ids)-1]); !ok {
		t.Fatal("newest terminal job was evicted")
	}
}

// TestQueueCancelAndShutdown: cancelling a queued job resolves it without
// running; shutdown cancels the rest and refuses new work.
func TestQueueCancelAndShutdown(t *testing.T) {
	q := New(Options{Workers: 1, FixedAdmission: true})
	gate := make(chan struct{})
	ran := make(chan string, 16)
	blocked := func(ctx context.Context) (any, error) { <-gate; return nil, nil }

	first, err := q.Submit(Request{Tenant: "t", Fn: blocked})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	victim, err := q.Submit(Request{Tenant: "t", Fn: func(ctx context.Context) (any, error) {
		ran <- "victim"
		return nil, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !q.Cancel(victim.ID()) {
		t.Fatal("cancel of queued job failed")
	}
	view, err := victim.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if view.Status != StatusCanceled {
		t.Fatalf("cancelled job status = %s", view.Status)
	}

	close(gate)
	if _, err := first.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := q.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	select {
	case who := <-ran:
		t.Fatalf("cancelled job ran: %s", who)
	default:
	}
	if _, err := q.Submit(Request{Tenant: "t", Fn: blocked}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after shutdown: got %v, want ErrClosed", err)
	}
}

// TestQueuePanicFailsOnlyThatJob: a panicking job ends failed with the panic
// value and stack in its error, and the single worker it ran on goes on to
// run the next job (so the admission gate was released, too).
func TestQueuePanicFailsOnlyThatJob(t *testing.T) {
	q := New(Options{Workers: 1, FixedAdmission: true})
	defer q.Shutdown(context.Background())
	bad, err := q.Submit(Request{Tenant: "t", Kind: "plan", Fn: func(ctx context.Context) (any, error) {
		var m map[string]int
		m["boom"]++ // nil-map write panics
		return nil, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	view, err := bad.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if view.Status != StatusFailed {
		t.Fatalf("panicking job status = %s, want %s", view.Status, StatusFailed)
	}
	if !strings.Contains(view.Err, "panicked: assignment to entry in nil map") ||
		!strings.Contains(view.Err, "TestQueuePanicFailsOnlyThatJob") {
		t.Errorf("error lacks the panic value or stack:\n%s", view.Err)
	}

	good, err := q.Submit(Request{Tenant: "t", Kind: "plan", Fn: func(ctx context.Context) (any, error) {
		return "ok", nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if view, err := good.Wait(ctx); err != nil || view.Status != StatusSucceeded {
		t.Fatalf("next job = %s, %v; want succeeded", view.Status, err)
	}
}
