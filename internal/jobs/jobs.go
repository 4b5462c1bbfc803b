// Package jobs is an async job queue with per-tenant weighted fair
// scheduling and adaptive admission control (DESIGN.md S27). cloudlessd
// runs every lifecycle operation — plan, apply, drift, recover — as a job
// here, so one tenant's 10k-resource apply cannot starve another tenant's
// one-line plan: dispatch order is start-time fair queueing over tenants
// (sched.go), and the worker pool sits behind the provider runtime's AIMD
// gate so sustained congestion shrinks effective concurrency instead of
// piling on.
//
// Durability is opt-in via Options.Store (DESIGN.md S28): with a store
// attached, every transition (submitted -> running -> terminal) is appended
// to a per-tenant CRC-framed journal and fsynced before the transition is
// acknowledged, and Restore rebuilds the job table from a replayed journal
// after a daemon restart. Without a store the queue persists nothing and
// resumability comes from the layer below (a crashed apply job leaves its
// workspace journal, and a recover job resumes it).
package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"cloudless/internal/cloud"
	"cloudless/internal/provider"
)

// Status is a job's lifecycle state.
type Status string

// Job states. Terminal states are succeeded, failed, and canceled.
const (
	StatusQueued    Status = "queued"
	StatusRunning   Status = "running"
	StatusSucceeded Status = "succeeded"
	StatusFailed    Status = "failed"
	StatusCanceled  Status = "canceled"
)

// Terminal reports whether a status is final.
func (s Status) Terminal() bool {
	return s == StatusSucceeded || s == StatusFailed || s == StatusCanceled
}

// ErrClosed is returned by Submit after Shutdown has begun.
var ErrClosed = errors.New("jobs: queue closed")

type jobIDKey struct{}

// JobID returns the running job's ID from a context passed to Request.Fn
// ("" outside a job). Fns use it to key artifacts they produce.
func JobID(ctx context.Context) string {
	id, _ := ctx.Value(jobIDKey{}).(string)
	return id
}

// ErrQueueFull is the typed admission error for a tenant over its backlog
// limit. Callers should back off and resubmit.
type ErrQueueFull struct {
	Tenant string
	Limit  int
}

// Error implements error.
func (e *ErrQueueFull) Error() string {
	return fmt.Sprintf("jobs: tenant %s backlog full (limit %d)", e.Tenant, e.Limit)
}

// Request describes one job to submit.
type Request struct {
	// Tenant is the fairness bucket (workspace name in cloudlessd).
	Tenant string
	// Kind labels the work ("plan", "apply", "drift", "recover", ...).
	Kind string
	// Cost is the job's scheduling cost in abstract units (default 1).
	// Bigger jobs push their tenant's virtual time further ahead, so a
	// tenant submitting heavy applies yields dispatch slots to tenants
	// submitting cheap plans.
	Cost float64
	// IdemKey is an optional client-supplied idempotency key. Submitting a
	// second job with the same (tenant, key) returns the original job
	// instead of creating a new one, making submit retries safe across
	// timeouts and daemon restarts.
	IdemKey string
	// Params is the submitter's request payload, persisted opaquely with
	// the job so restart recovery can rebuild Fn for jobs that still need
	// to run.
	Params json.RawMessage
	// Fn does the work. The context is canceled by Cancel and by queue
	// shutdown; Fn must honor it.
	Fn func(ctx context.Context) (any, error)
}

// View is a copyable snapshot of a job.
type View struct {
	ID        string    `json:"id"`
	Tenant    string    `json:"tenant"`
	Kind      string    `json:"kind"`
	Status    Status    `json:"status"`
	Submitted time.Time `json:"submitted"`
	Started   time.Time `json:"started,omitempty"`
	Finished  time.Time `json:"finished,omitempty"`
	Err       string    `json:"error,omitempty"`
}

// Job is one unit of queued work. All state is guarded by the queue's
// lock; read it through Snapshot/Result/Wait.
type Job struct {
	q       *Queue
	id      string
	tenant  string
	kind    string
	idemKey string
	params  json.RawMessage
	cost    float64
	fn      func(ctx context.Context) (any, error)

	status    Status
	submitted time.Time
	started   time.Time
	finished  time.Time
	err       error
	result    any
	// noRecord suppresses the terminal store record for this job: the
	// shutdown checkpoint writes a queued record instead, so the job is
	// re-enqueued (not replayed as canceled) after a clean restart.
	noRecord bool
	// claimed flips when a worker pops the job in next(); from then on the
	// job's terminal transition belongs to that worker alone (Cancel only
	// cancels ctx) so done is closed exactly once.
	claimed bool
	ctx     context.Context
	cancel  context.CancelFunc
	done    chan struct{}
}

// ID returns the job's queue-unique identifier.
func (j *Job) ID() string { return j.id }

// Snapshot returns a copy of the job's current state.
func (j *Job) Snapshot() View {
	j.q.mu.Lock()
	defer j.q.mu.Unlock()
	return j.viewLocked()
}

func (j *Job) viewLocked() View {
	v := View{
		ID: j.id, Tenant: j.tenant, Kind: j.kind, Status: j.status,
		Submitted: j.submitted, Started: j.started, Finished: j.finished,
	}
	if j.err != nil {
		v.Err = j.err.Error()
	}
	return v
}

// Wait blocks until the job reaches a terminal state or ctx is done, then
// returns the final snapshot.
func (j *Job) Wait(ctx context.Context) (View, error) {
	select {
	case <-j.done:
		return j.Snapshot(), nil
	case <-ctx.Done():
		return j.Snapshot(), ctx.Err()
	}
}

// Result returns the Fn return values once the job is terminal (nil, nil
// before that, and for canceled jobs).
func (j *Job) Result() (any, error) {
	j.q.mu.Lock()
	defer j.q.mu.Unlock()
	if !j.status.Terminal() {
		return nil, nil
	}
	return j.result, j.err
}

// Options tune New.
type Options struct {
	// Workers is the dispatch ceiling (default 4). The effective ceiling
	// adapts below this under congestion unless FixedAdmission is set.
	Workers int
	// FixedAdmission pins concurrency at Workers (no AIMD adaptation).
	FixedAdmission bool
	// MaxQueuedPerTenant bounds one tenant's backlog (default 256);
	// Submit past it fails with *ErrQueueFull.
	MaxQueuedPerTenant int
	// MaxFinishedPerTenant bounds how many terminal jobs a tenant retains
	// for Get/List (default 256). Older terminal jobs are evicted
	// oldest-first so a long-running daemon's job table stays bounded.
	MaxFinishedPerTenant int
	// DefaultWeight is the fair-share weight for tenants not in Weights
	// (default 1).
	DefaultWeight float64
	// Weights grants specific tenants a larger or smaller fair share.
	Weights map[string]float64
	// Clock supplies timestamps (default time.Now); tests pin it.
	Clock func() time.Time
	// Store, when set, makes the queue durable: transitions are journaled
	// and fsynced, and Restore can rebuild the job table after a restart.
	Store *Store
}

// Queue runs submitted jobs on a worker pool in fair-share order.
type Queue struct {
	opts Options
	gate *provider.AdmissionGate

	mu         sync.Mutex
	cond       *sync.Cond
	sched      *sfq
	jobs       map[string]*Job
	backlog    map[string]int               // queued per tenant, for admission
	finished   map[string][]string          // terminal job IDs per tenant, oldest first
	idem       map[string]map[string]string // tenant -> idem key -> job ID
	nextID     int
	closed     bool
	wg         sync.WaitGroup
	baseCtx    context.Context
	baseCancel context.CancelFunc
}

// New builds and starts a queue.
func New(opts Options) *Queue {
	if opts.Workers <= 0 {
		opts.Workers = 4
	}
	if opts.MaxQueuedPerTenant <= 0 {
		opts.MaxQueuedPerTenant = 256
	}
	if opts.MaxFinishedPerTenant <= 0 {
		opts.MaxFinishedPerTenant = 256
	}
	if opts.DefaultWeight <= 0 {
		opts.DefaultWeight = 1
	}
	if opts.Clock == nil {
		opts.Clock = time.Now
	}
	q := &Queue{
		opts:     opts,
		gate:     provider.NewAdmissionGate(opts.Workers, opts.FixedAdmission),
		sched:    newSFQ(),
		jobs:     map[string]*Job{},
		backlog:  map[string]int{},
		finished: map[string][]string{},
		idem:     map[string]map[string]string{},
	}
	q.cond = sync.NewCond(&q.mu)
	q.baseCtx, q.baseCancel = context.WithCancel(context.Background())
	for i := 0; i < opts.Workers; i++ {
		q.wg.Add(1)
		go q.worker()
	}
	return q
}

// Gate exposes the admission gate (window/queue introspection).
func (q *Queue) Gate() *provider.AdmissionGate { return q.gate }

// Store exposes the durable store (nil when the queue is in-memory only).
func (q *Queue) Store() *Store { return q.opts.Store }

// storedLocked snapshots a job as its durable record.
func (j *Job) storedLocked() StoredJob {
	s := StoredJob{
		ID: j.id, Tenant: j.tenant, Kind: j.kind, Status: j.status,
		IdemKey: j.idemKey, Params: j.params, Cost: j.cost,
		Submitted: j.submitted, Started: j.started, Finished: j.finished,
	}
	if j.err != nil {
		s.Err = j.err.Error()
	}
	if j.status.Terminal() && j.result != nil {
		// Best-effort: a result that doesn't marshal still persists the
		// status and error.
		if raw, err := json.Marshal(j.result); err == nil {
			s.Result = raw
		}
	}
	return s
}

// appendLocked journals the job's current state. Transition appends after
// a successful submit are best-effort: a disk error must not wedge the
// worker pool, and replay treats a missing later record as "the earlier
// state stood at the crash", which recovery already handles.
func (q *Queue) appendLocked(j *Job) {
	if q.opts.Store == nil {
		return
	}
	_ = q.opts.Store.Append(j.storedLocked())
}

func (q *Queue) weight(tenant string) float64 {
	if w, ok := q.opts.Weights[tenant]; ok && w > 0 {
		return w
	}
	return q.opts.DefaultWeight
}

// Submit enqueues a job. It fails fast with ErrClosed after Shutdown and
// with *ErrQueueFull when the tenant's backlog is at its limit.
func (q *Queue) Submit(req Request) (*Job, error) {
	if req.Fn == nil {
		return nil, errors.New("jobs: Request.Fn is required")
	}
	if req.Tenant == "" {
		req.Tenant = "default"
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return nil, ErrClosed
	}
	// Idempotent resubmission: a retry carrying the original key dedups to
	// the original job — the caller re-observes it rather than re-running.
	if req.IdemKey != "" {
		if id, ok := q.idem[req.Tenant][req.IdemKey]; ok {
			if j, ok := q.jobs[id]; ok {
				return j, nil
			}
		}
	}
	if q.backlog[req.Tenant] >= q.opts.MaxQueuedPerTenant {
		return nil, &ErrQueueFull{Tenant: req.Tenant, Limit: q.opts.MaxQueuedPerTenant}
	}
	q.nextID++
	j := &Job{
		q: q, id: fmt.Sprintf("j-%06d", q.nextID),
		tenant: req.Tenant, kind: req.Kind, fn: req.Fn,
		idemKey: req.IdemKey, params: req.Params, cost: req.Cost,
		status: StatusQueued, submitted: q.opts.Clock(),
		done: make(chan struct{}),
	}
	// Durability before acknowledgment: an accepted submit must survive a
	// crash, so a failed journal append rejects the submit outright.
	if q.opts.Store != nil {
		if err := q.opts.Store.Append(j.storedLocked()); err != nil {
			q.nextID--
			return nil, fmt.Errorf("jobs: persist submit: %w", err)
		}
	}
	q.jobs[j.id] = j
	q.backlog[req.Tenant]++
	q.registerIdemLocked(j)
	q.sched.push(req.Tenant, q.weight(req.Tenant), req.Cost, j)
	q.cond.Signal()
	return j, nil
}

func (q *Queue) registerIdemLocked(j *Job) {
	if j.idemKey == "" {
		return
	}
	m := q.idem[j.tenant]
	if m == nil {
		m = map[string]string{}
		q.idem[j.tenant] = m
	}
	m[j.idemKey] = j.id
}

// Get returns a job by ID.
func (q *Queue) Get(id string) (*Job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	return j, ok
}

// List snapshots jobs, newest first; tenant "" lists all tenants.
func (q *Queue) List(tenant string) []View {
	q.mu.Lock()
	defer q.mu.Unlock()
	var out []View
	for _, j := range q.jobs {
		if tenant == "" || j.tenant == tenant {
			out = append(out, j.viewLocked())
		}
	}
	// Deterministic order: IDs are zero-padded sequence numbers.
	sort.Slice(out, func(i, k int) bool { return out[i].ID > out[k].ID })
	return out
}

// Cancel stops a job: a still-queued job is removed and marked canceled;
// a job already claimed by a worker (dispatching or running) has its
// context canceled and the worker resolves it to a terminal state.
// Canceling a terminal job is a no-op. Reports whether the job exists.
func (q *Queue) Cancel(id string) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return false
	}
	switch {
	case j.status.Terminal():
		// Nothing to do.
	case j.claimed:
		// A worker owns the job's terminal transition (it may be parked on
		// the admission gate with status still "queued"); cancel its context
		// and let the worker finish it. Touching backlog or done here would
		// double-decrement admission counts and double-close done.
		j.cancel()
	default:
		// Still in the scheduler. Honor remove's verdict: claim and remove
		// are serialized under q.mu, so a miss means inconsistent state —
		// leave the job alone rather than corrupting backlog counts.
		if q.sched.remove(j) {
			q.backlog[j.tenant]--
			q.finishLocked(j, nil, context.Canceled)
		}
	}
	return true
}

// next blocks for the next dispatchable job; nil means the queue closed.
func (q *Queue) next() *Job {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if j := q.sched.pop(); j != nil {
			q.backlog[j.tenant]--
			// Claim atomically with the pop: the job gets its context here so
			// Cancel can interrupt it even while the worker is still parked
			// on the admission gate, and the queued branch of Cancel (which
			// decrements backlog and closes done) can never run for it.
			j.claimed = true
			j.ctx, j.cancel = context.WithCancel(context.WithValue(q.baseCtx, jobIDKey{}, j.id))
			return j
		}
		if q.closed {
			return nil
		}
		q.cond.Wait()
	}
}

func (q *Queue) worker() {
	defer q.wg.Done()
	for {
		j := q.next()
		if j == nil {
			return
		}
		// Admission: under congestion the AIMD window drops below the
		// worker count and excess workers block here, shrinking effective
		// concurrency without abandoning the job they already claimed.
		// Waiting on the job's own context lets Cancel unblock the wait.
		if err := q.gate.Acquire(j.ctx); err != nil {
			j.cancel()
			q.finish(j, nil, err)
			continue
		}
		// Canceled between claim and admission: resolve without running.
		if err := j.ctx.Err(); err != nil {
			q.gate.Release()
			j.cancel()
			q.finish(j, nil, err)
			continue
		}
		q.mu.Lock()
		j.status = StatusRunning
		j.started = q.opts.Clock()
		q.appendLocked(j)
		q.mu.Unlock()

		res, err := runIsolated(j)
		latency := q.opts.Clock().Sub(j.started)
		j.cancel()
		q.gate.Release()
		now := q.opts.Clock()
		if cloud.IsThrottled(err) {
			q.gate.OnCongestion(now)
		} else {
			q.gate.OnSuccess(latency, now)
		}
		q.finish(j, res, err)
	}
}

// runIsolated calls the job's function, turning a panic into the job's
// error (the panic value plus the goroutine stack), so one tenant's bug
// fails its own job instead of killing the daemon and every other tenant.
func runIsolated(j *Job) (res any, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, fmt.Errorf("jobs: job %s panicked: %v\n%s", j.id, p, debug.Stack())
		}
	}()
	return j.fn(j.ctx)
}

// finish moves a dispatched job to its terminal state.
func (q *Queue) finish(j *Job, res any, err error) {
	q.mu.Lock()
	q.finishLocked(j, res, err)
	q.mu.Unlock()
}

func (q *Queue) finishLocked(j *Job, res any, err error) {
	j.result = res
	j.err = err
	j.finished = q.opts.Clock()
	switch {
	case errors.Is(err, context.Canceled):
		j.status = StatusCanceled
	case err != nil:
		j.status = StatusFailed
	default:
		j.status = StatusSucceeded
	}
	if !j.noRecord {
		q.appendLocked(j)
	}
	close(j.done)
	q.retireLocked(j)
}

// retireLocked records a newly-terminal job and evicts the tenant's oldest
// terminal jobs past the retention cap, so job records, results, and errors
// don't accumulate without bound in a long-running daemon.
func (q *Queue) retireLocked(j *Job) {
	ids := append(q.finished[j.tenant], j.id)
	for len(ids) > q.opts.MaxFinishedPerTenant {
		if old := q.jobs[ids[0]]; old != nil && old.idemKey != "" {
			delete(q.idem[old.tenant], old.idemKey)
		}
		delete(q.jobs, ids[0])
		ids = ids[1:]
	}
	q.finished[j.tenant] = ids
}

// QueuedLen reports how many jobs are waiting for dispatch.
func (q *Queue) QueuedLen() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.sched.len()
}

// Shutdown stops the queue: new submits fail, still-queued jobs are
// canceled, and running jobs get until ctx expires to finish before their
// contexts are canceled. Always waits for workers to exit.
//
// With a store attached, still-queued jobs get a graceful-shutdown
// checkpoint: a clean "queued" record is journaled (instead of a canceled
// terminal record) so the next daemon start re-enqueues them, while local
// waiters see them resolve canceled. Running jobs that drain in time write
// terminal records through the normal finish path.
func (q *Queue) Shutdown(ctx context.Context) error {
	q.mu.Lock()
	if !q.closed {
		q.closed = true
		for {
			j := q.sched.pop()
			if j == nil {
				break
			}
			q.backlog[j.tenant]--
			if q.opts.Store != nil {
				q.appendLocked(j) // status still queued: the restart checkpoint
				j.noRecord = true
			}
			q.finishLocked(j, nil, context.Canceled)
		}
		q.cond.Broadcast()
	}
	q.mu.Unlock()

	done := make(chan struct{})
	go func() {
		q.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		q.baseCancel()
		<-done
		return ctx.Err()
	}
}

// Restore rebuilds one replayed job in the queue after a daemon restart,
// preserving its pre-crash ID, timestamps, and idempotency key so clients
// re-polling old job IDs (or retrying old submits) see the original job.
//
//   - Terminal records become history: Get/List/Wait serve them immediately.
//   - Non-terminal records (queued at the crash, or running mid-flight) are
//     re-enqueued with fn as the work function; the caller chooses fn — for
//     a job that was mid-apply, that is the workspace recovery path, so the
//     resumed job completes under its original apply idempotency keys. A
//     nil fn marks the job failed with the given reason instead (e.g. its
//     workspace no longer exists).
//
// Restore must run before the queue takes live submissions: it advances
// the ID sequence past every restored ID so new jobs never collide.
func (q *Queue) Restore(stored StoredJob, fn func(ctx context.Context) (any, error), failReason string) (*Job, error) {
	if stored.ID == "" || stored.Tenant == "" {
		return nil, errors.New("jobs: restore needs an ID and tenant")
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return nil, ErrClosed
	}
	if _, dup := q.jobs[stored.ID]; dup {
		return nil, fmt.Errorf("jobs: restore: %s already present", stored.ID)
	}
	// Keep the ID sequence ahead of everything replayed.
	if n, ok := parseJobID(stored.ID); ok && n > q.nextID {
		q.nextID = n
	}
	j := &Job{
		q: q, id: stored.ID, tenant: stored.Tenant, kind: stored.Kind,
		idemKey: stored.IdemKey, params: stored.Params, cost: stored.Cost,
		status: stored.Status, submitted: stored.Submitted,
		started: stored.Started, finished: stored.Finished,
		done: make(chan struct{}),
	}
	if stored.Err != "" {
		j.err = errors.New(stored.Err)
	}
	if len(stored.Result) > 0 {
		// Decode into any: the same shape a result has after one wire
		// round-trip, which is what JobStatus.Result carries anyway.
		var res any
		if json.Unmarshal(stored.Result, &res) == nil {
			j.result = res
		}
	}
	q.jobs[j.id] = j
	q.registerIdemLocked(j)
	switch {
	case stored.Status.Terminal():
		close(j.done)
		q.retireLocked(j)
	case fn == nil:
		if failReason == "" {
			failReason = "not recoverable after restart"
		}
		q.finishLocked(j, nil, errors.New(failReason))
	default:
		j.fn = fn
		j.status = StatusQueued
		q.backlog[j.tenant]++
		q.sched.push(j.tenant, q.weight(j.tenant), j.cost, j)
		q.cond.Signal()
	}
	return j, nil
}

// parseJobID extracts the sequence number from a "j-%06d" job ID.
func parseJobID(id string) (int, bool) {
	rest, ok := strings.CutPrefix(id, "j-")
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(rest)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// ActiveForTenant counts the tenant's non-terminal jobs (queued, claimed,
// or running). Workspace deletion refuses while this is non-zero.
func (q *Queue) ActiveForTenant(tenant string) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := 0
	for _, j := range q.jobs {
		if j.tenant == tenant && !j.status.Terminal() {
			n++
		}
	}
	return n
}

// DropTenant forgets a tenant's job history — memory and journal — after
// its workspace is deleted, so a recreated workspace with the same name
// starts clean. The caller must ensure the tenant has no active jobs.
func (q *Queue) DropTenant(tenant string) error {
	q.mu.Lock()
	for id, j := range q.jobs {
		if j.tenant == tenant && j.status.Terminal() {
			delete(q.jobs, id)
		}
	}
	delete(q.finished, tenant)
	delete(q.idem, tenant)
	q.mu.Unlock()
	if q.opts.Store != nil {
		return q.opts.Store.Drop(tenant)
	}
	return nil
}
