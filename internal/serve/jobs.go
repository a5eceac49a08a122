package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"emsim/internal/obs"
)

// This file is the one background-job registry behind /v1/train and
// /v1/defend. A campaign runs for seconds to hours next to a simulate
// call, so each job runs on its own goroutine gated by a small per-kind
// semaphore rather than through the simulation worker pool: POST
// submits it and returns a job ID, GET /{id} reports progress and, once
// done, the result, DELETE cancels, and Server.Close drains.
//
// A job kind is an adapter over this registry. It validates its
// request, hands submit a jobFunc that runs the campaign to serialized
// result bytes, folds the campaign's progress events into its progress
// record P under the job lock, and renders a jobView as its wire status.

// Job states, shared by every kind.
const (
	jobQueued    = "queued"
	jobRunning   = "running"
	jobDone      = "done"
	jobFailed    = "failed"
	jobCancelled = "cancelled"
)

// maxJobRecords bounds each registry; above it, submission evicts the
// oldest finished job or sheds the request.
const maxJobRecords = 64

// asyncJob is one background campaign and its observable state. P is
// the kind's progress record; the kind's fold updates it under mu. P
// must hold no references (maps, slices, pointers): view copies it out
// from under the lock.
type asyncJob[P any] struct {
	id     string
	cancel context.CancelFunc

	mu       sync.Mutex
	state    string
	progress P
	started  time.Time
	elapsed  time.Duration // frozen at completion
	err      string
	result   []byte // serialized result, set when state == done
	finished bool
}

// jobView is a snapshot of one job, taken under its lock.
type jobView[P any] struct {
	ID        string
	State     string
	ElapsedMS int64
	Error     string
	Result    json.RawMessage // only when done and asked for
	Progress  P
}

// jobFunc runs one campaign to its serialized result. It may fold
// progress into j.progress (under j.mu) and must return promptly, with
// ctx's error, once ctx is cancelled.
type jobFunc[P any] func(ctx context.Context, j *asyncJob[P]) ([]byte, error)

// finish records the campaign outcome exactly once and returns the
// job's final state. The error is rendered before taking the lock:
// Error is foreign code (a wrapped chain may format lazily) and has no
// business inside the critical section.
func (j *asyncJob[P]) finish(result []byte, err error) string {
	var msg string
	if err != nil {
		msg = err.Error()
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.finished {
		return j.state
	}
	j.finished = true
	if !j.started.IsZero() {
		j.elapsed = time.Since(j.started)
	}
	switch {
	case err == nil:
		j.state = jobDone
		j.result = result
	case errors.Is(err, context.Canceled):
		j.state = jobCancelled
	default:
		j.state = jobFailed
		j.err = msg
	}
	return j.state
}

// view snapshots the job, including the result only when asked (the
// submit and cancel replies skip the multi-kilobyte payload).
func (j *asyncJob[P]) view(withResult bool) jobView[P] {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := jobView[P]{ID: j.id, State: j.state, Error: j.err, Progress: j.progress}
	switch {
	case j.finished:
		v.ElapsedMS = j.elapsed.Milliseconds()
	case !j.started.IsZero():
		v.ElapsedMS = time.Since(j.started).Milliseconds()
	}
	if withResult && j.state == jobDone {
		v.Result = j.result
	}
	return v
}

// registry owns every job of one kind on one server: submission with
// bounded eviction, lookup, the run-concurrency semaphore, the outcome
// metrics and drain-time cancellation.
type registry[P any] struct {
	kind string     // job-ID prefix: "train" numbers jobs train-1, train-2, ...
	noun string     // names the kind in 404 bodies: "no such <noun> job"
	span obs.SpanID // covers each job's execution, on a lane claimed per job
	base context.Context
	sem  chan struct{}
	met  *jobMetrics
	wire func(jobView[P]) any // the kind's wire status

	mu     sync.Mutex
	jobs   map[string]*asyncJob[P]
	order  []string // insertion order, for bounded eviction
	nextID int
	closed bool
	wg     sync.WaitGroup
}

// newRegistry builds a registry whose jobs run at most concurrent at a
// time, each under a child of base (Config.BaseContext).
func newRegistry[P any](kind, noun string, span obs.SpanID, base context.Context, concurrent int,
	met *jobMetrics, wire func(jobView[P]) any) *registry[P] {
	return &registry[P]{
		kind: kind,
		noun: noun,
		span: span,
		base: base,
		sem:  make(chan struct{}, concurrent),
		met:  met,
		wire: wire,
		jobs: map[string]*asyncJob[P]{},
	}
}

// submit registers a campaign and starts its runner goroutine. The
// returned error is nil, errQueueFull (registry full of live jobs) or
// errDraining.
func (r *registry[P]) submit(fn jobFunc[P]) (*asyncJob[P], error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, errDraining
	}
	if len(r.jobs) >= maxJobRecords && !r.evictLocked() {
		return nil, errQueueFull
	}
	r.nextID++
	ctx, cancel := context.WithCancel(r.base)
	j := &asyncJob[P]{id: fmt.Sprintf("%s-%d", r.kind, r.nextID), cancel: cancel, state: jobQueued}
	r.jobs[j.id] = j
	r.order = append(r.order, j.id)
	r.met.submitted.Add(1)
	r.met.active.Add(1)
	r.wg.Add(1)
	go r.run(ctx, j, fn)
	return j, nil
}

// evictLocked drops the oldest finished job; it reports whether a slot
// was freed. Callers hold r.mu.
func (r *registry[P]) evictLocked() bool {
	for i, id := range r.order {
		j := r.jobs[id]
		j.mu.Lock()
		finished := j.finished
		j.mu.Unlock()
		if finished {
			delete(r.jobs, id)
			r.order = append(r.order[:i], r.order[i+1:]...)
			return true
		}
	}
	return false
}

// get looks a job up by ID.
func (r *registry[P]) get(id string) *asyncJob[P] {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.jobs[id]
}

// run executes one campaign: wait for a concurrency slot, run it, and
// record the outcome on the job and in the metrics.
func (r *registry[P]) run(ctx context.Context, j *asyncJob[P], fn jobFunc[P]) {
	defer r.wg.Done()
	defer r.met.active.Add(-1)
	// Release the job's context once it ends: otherwise a finished job
	// stays registered under the base context for the life of the
	// process, even after eviction.
	defer j.cancel()
	select {
	case r.sem <- struct{}{}:
		defer func() { <-r.sem }()
	case <-ctx.Done():
		r.met.finished[j.finish(nil, ctx.Err())].Add(1)
		return
	}
	j.mu.Lock()
	j.state, j.started = jobRunning, time.Now()
	j.mu.Unlock()
	lane := obs.NextLane()
	obs.Begin(r.span, lane)
	defer obs.End(r.span, lane)
	result, err := fn(ctx, j)
	r.met.finished[j.finish(result, err)].Add(1)
}

// drain cancels every live campaign and waits for all runner goroutines
// to exit. Safe to call more than once. Jobs are snapshotted under the
// lock but cancelled outside it: cancel funcs run foreign Done-channel
// machinery, and submit already refuses new jobs once closed is set.
func (r *registry[P]) drain() {
	r.mu.Lock()
	r.closed = true
	jobs := make([]*asyncJob[P], 0, len(r.jobs))
	for _, j := range r.jobs {
		jobs = append(jobs, j)
	}
	r.mu.Unlock()
	for _, j := range jobs {
		j.cancel()
	}
	r.wg.Wait()
}

// ---- HTTP handlers ----

// accept submits fn and answers 202 with the new job's status, or sheds
// the request.
func (r *registry[P]) accept(s *Server, w http.ResponseWriter, fn jobFunc[P]) {
	j, err := r.submit(fn)
	if err != nil {
		s.shed(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, r.wire(j.view(false)))
}

func (r *registry[P]) handleStatus(w http.ResponseWriter, req *http.Request) {
	j := r.get(req.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such %s job", r.noun)
		return
	}
	writeJSON(w, http.StatusOK, r.wire(j.view(true)))
}

func (r *registry[P]) handleCancel(w http.ResponseWriter, req *http.Request) {
	j := r.get(req.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such %s job", r.noun)
		return
	}
	// Cancellation is asynchronous: the campaign unwinds within one
	// context check per in-flight worker; poll the status for
	// "cancelled".
	j.cancel()
	writeJSON(w, http.StatusAccepted, r.wire(j.view(false)))
}
