package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"cloudless/internal/cloud"
	"cloudless/internal/jobs"
	"cloudless/internal/provider"
	"cloudless/internal/server"
	"cloudless/internal/workspace"
)

// daemon is cloudlessd assembled in this process: workspace manager, job
// queue and API server on a loopback listener, over one simulator. With a
// data dir it is the crash-safe deployment (fsynced job journal, wal state);
// the caller owns the dir.
type daemon struct {
	sim    *cloud.Sim
	dir    string // "" for an in-memory daemon
	mgr    *workspace.Manager
	queue  *jobs.Queue
	store  *jobs.Store
	srv    *server.Server
	hs     *http.Server
	served chan error
	client *server.Client
	conns  *http.Transport
	tt     *timedTransport // traced runs only
	// calls counts logical client calls; the transport counts attempts.
	calls atomic.Int64
}

// daemonWorkers is the job worker ceiling, cloudlessd's default.
const daemonWorkers = 8

func startDaemon(dir string, tr *tracer) (*daemon, error) {
	d := &daemon{sim: fastSim(), dir: dir}
	mopts := workspace.ManagerOptions{Cloud: cloudFor(d.sim, tr)}
	qopts := jobs.Options{Workers: daemonWorkers}
	sopts := server.Options{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))}
	if dir != "" {
		mopts.Root, mopts.DefaultBackend = dir, "wal"
		var err error
		if d.store, err = jobs.OpenStore(dir, jobs.StoreOptions{}); err != nil {
			return nil, err
		}
		qopts.Store = d.store
		sopts.ACLPath = filepath.Join(dir, "acl.json")
	}
	d.mgr = workspace.NewManager(mopts)
	d.queue = jobs.New(qopts)
	sopts.Manager, sopts.Queue = d.mgr, d.queue
	d.srv = server.New(sopts)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.stop()
		return nil, err
	}
	d.hs = &http.Server{Handler: d.srv.Handler(), ReadHeaderTimeout: 5 * time.Second}
	d.served = make(chan error, 1)
	go func() { d.served <- d.hs.Serve(ln) }()

	// At most nproc keep-alive connections carry every request.
	n := runtime.NumCPU()
	d.conns = &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n, IdleConnTimeout: time.Minute}
	var rt http.RoundTripper = d.conns
	if tr != nil {
		d.tt = &timedTransport{base: d.conns, tr: tr}
		rt = d.tt
	}
	d.client = server.NewClient("http://"+ln.Addr().String(), "", &http.Client{Transport: rt, Timeout: time.Minute})
	return d, nil
}

// stop shuts the listener, the queue and every workspace down and waits
// for them.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if d.hs != nil {
		_ = d.hs.Shutdown(ctx) // best effort: the process is done with it
		<-d.served
	}
	if d.conns != nil {
		d.conns.CloseIdleConnections()
	}
	if d.srv != nil {
		_ = d.srv.Shutdown(ctx) // drains the queue and closes workspaces
	}
	if d.store != nil {
		_ = d.store.Close()
	}
}

// call counts one logical client call.
func (d *daemon) call() { d.calls.Add(1) }

// runJob submits a job over HTTP, learns it finished from the in-process
// queue (no long-poll connection held), then fetches its status once.
func (d *daemon) runJob(ctx context.Context, ws string, req server.JobRequest) (server.JobStatus, jobs.View, error) {
	d.call()
	st, err := d.client.SubmitJob(ctx, ws, req)
	if err != nil {
		return st, jobs.View{}, fmt.Errorf("submit %s: %w", req.Kind, err)
	}
	job, ok := d.queue.Get(st.ID)
	if !ok {
		return st, jobs.View{}, fmt.Errorf("job %s not in the queue", st.ID)
	}
	view, err := job.Wait(ctx)
	if err != nil {
		return st, view, err
	}
	d.call()
	if st, err = d.client.GetJob(ctx, ws, st.ID, 0); err != nil {
		return st, view, fmt.Errorf("get %s job: %w", req.Kind, err)
	}
	if st.Status != jobs.StatusSucceeded {
		return st, view, fmt.Errorf("%s job %s: %s %s", req.Kind, st.ID, st.Status, st.Err)
	}
	return st, view, nil
}

// deploy creates a workspace and applies it through jobs.
func (d *daemon) deploy(ctx context.Context, name string, sources map[string]string) error {
	d.call()
	if _, err := d.client.CreateWorkspace(ctx, server.CreateWorkspaceRequest{Name: name, Sources: sources}); err != nil {
		return fmt.Errorf("create %s: %w", name, err)
	}
	_, _, err := d.runJob(ctx, name, server.JobRequest{Kind: "apply"})
	return err
}

// providerStats sums the provider runtimes of the named workspaces.
func (d *daemon) providerStats(names []string) provider.Stats {
	var s provider.Stats
	for _, n := range names {
		if ws, err := d.mgr.Get(n); err == nil {
			s = addStats(s, ws.Provider().Stats())
		}
	}
	return s
}

// timedTransport is the traced run's HTTP client decorator: every attempt
// becomes a "server.<route>" span ending when the response body is closed,
// and non-2xx answers are counted.
type timedTransport struct {
	base     http.RoundTripper
	tr       *tracer
	attempts atomic.Int64
	non2xx   atomic.Int64
	refused  atomic.Int64 // 429: the queue turned a job away
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.attempts.Add(1)
	name := "server." + route(req)
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.tr.record(name, start, time.Now())
		return nil, err
	}
	if resp.StatusCode >= 300 {
		t.non2xx.Add(1)
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		t.refused.Add(1)
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() { t.tr.record(name, start, time.Now()) }}
	return resp, nil
}

type timedBody struct {
	io.ReadCloser
	done   func()
	closed bool
}

func (b *timedBody) Close() error {
	if !b.closed {
		b.closed = true
		b.done()
	}
	return b.ReadCloser.Close()
}

// route names the API call a request makes.
func route(req *http.Request) string {
	p := req.URL.Path
	switch {
	case req.Method == http.MethodPost && p == "/v1/workspaces":
		return "create"
	case req.Method == http.MethodPost && strings.HasSuffix(p, "/jobs"):
		return "submit"
	case req.Method == http.MethodDelete:
		return "delete"
	case req.Method == http.MethodGet:
		return "get"
	}
	return "other"
}

// serverLayers reports client round trips per route, non-2xx answers and
// retried attempts.
func serverLayers(r *result, d *daemon, spans []span) {
	byRoute := map[string][]float64{}
	for _, s := range spans {
		if strings.HasPrefix(s.name, "server.") {
			byRoute[s.name] = append(byRoute[s.name], ms(s.end.Sub(s.start)))
		}
	}
	for _, rt := range []string{"create", "submit", "get", "delete"} {
		dd := summarize(byRoute["server."+rt], 99)
		r.layer("server."+rt+"_ms.p50", dd.P50, "ms")
		r.layer("server."+rt+"_ms.p99", dd.Tail, "ms")
	}
	r.layer("server.non2xx", float64(d.tt.non2xx.Load()), "count")
	r.layer("jobs.refused", float64(d.tt.refused.Load()), "count")
	retries := d.tt.attempts.Load() - d.calls.Load()
	if retries < 0 {
		retries = 0
	}
	r.layer("server.retries", float64(retries), "count")
}
