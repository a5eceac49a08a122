package serve

import (
	"expvar"
	"io"
	"sort"
	"sync"
	"time"

	"emsim/internal/obs"
)

// latencyRingSize is the number of recent request latencies the
// percentile window holds. A power of two keeps the ring index a mask.
const latencyRingSize = 1024

// latencyRing is a fixed-size ring of recent request latencies. Writers
// are the scheduler's workers (one observation per completed job);
// readers are /varz scrapes, which copy the window out under the lock
// and sort the copy, so a scrape never blocks the hot path for more
// than the copy. It backs the /varz percentile summary; the cumulative
// Prometheus histograms live in the obs registry.
type latencyRing struct {
	mu    sync.Mutex
	buf   [latencyRingSize]float64 // milliseconds
	count uint64                   // total observations ever
}

func (r *latencyRing) observe(d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	r.mu.Lock()
	r.buf[r.count&(latencyRingSize-1)] = ms
	r.count++
	r.mu.Unlock()
}

// summary returns the ring's percentile snapshot; the map shape makes it
// directly consumable by expvar.Func.
func (r *latencyRing) summary() map[string]float64 {
	r.mu.Lock()
	n := int(r.count)
	if n > latencyRingSize {
		n = latencyRingSize
	}
	window := make([]float64, n)
	copy(window, r.buf[:n])
	count := r.count
	r.mu.Unlock()

	sort.Float64s(window)
	pick := func(p float64) float64 {
		if len(window) == 0 {
			return 0
		}
		i := int(p * float64(len(window)-1))
		return window[i]
	}
	return map[string]float64{
		"count":  float64(count),
		"p50_ms": pick(0.50),
		"p90_ms": pick(0.90),
		"p99_ms": pick(0.99),
		"max_ms": pick(1.0),
	}
}

// metrics is the server's observable state. Every counter and gauge
// lives in a per-server obs.Registry (rendered at GET /metrics in
// Prometheus text format) and is simultaneously bridged into an
// expvar.Map so the established /varz JSON keys keep their exact shape.
// The registry is per-server — not process-global — so tests can build
// many servers without duplicate-registration panics; cmd/emsim-serve
// additionally publishes the expvar map globally once.
type metrics struct {
	reg *obs.Registry

	queueDepth *obs.Gauge   // jobs accepted but not yet picked up
	inFlight   *obs.Gauge   // jobs currently executing on a worker
	requests   *obs.Counter // requests accepted into the queue
	rejected   *obs.Counter // requests shed with 429 (queue full)
	cancelled  *obs.Counter // jobs that ended with a cancelled context
	cycles     *obs.Counter // total simulated clock cycles
	latency    latencyRing

	// reqLatency holds the per-endpoint request-duration histograms,
	// keyed by the job's endpoint label ("" falls back to "other").
	reqLatency map[string]*obs.Histogram

	trains  *jobMetrics // /v1/train jobs
	defends *jobMetrics // /v1/defend jobs

	// phaseLatency records per-phase training campaign durations, by
	// core.Phase index.
	phaseLatency []*obs.Histogram

	tvlaTraces   *obs.Counter // traces simulated by /v1/tvla assessments
	defendTraces *obs.Counter // traces simulated by defense-evaluation campaigns
	// tvlaAnalysis records the statistic-extraction (snapshot) phase of a
	// /v1/tvla assessment — with streaming accumulators this is the only
	// analysis cost left; simulation dominates the rest of the request.
	tvlaAnalysis *obs.Histogram

	vars *expvar.Map
}

// endpoints are the request-duration histogram labels; jobs carry one.
var endpoints = []string{"simulate", "tvla", "savat", "attribute", "other"}

func newMetrics(phases []string) *metrics {
	reg := obs.NewRegistry()
	vars := new(expvar.Map)
	m := &metrics{
		reg:        reg,
		queueDepth: reg.Gauge("emsim_queue_depth", "jobs accepted but not yet picked up"),
		inFlight:   reg.Gauge("emsim_jobs_in_flight", "jobs currently executing on a worker"),
		requests:   reg.Counter("emsim_requests_accepted_total", "requests accepted into the queue"),
		rejected:   reg.Counter("emsim_requests_rejected_total", "requests shed with 429 (queue full)"),
		cancelled:  reg.Counter("emsim_requests_cancelled_total", "jobs that ended with a cancelled context"),
		cycles:     reg.Counter("emsim_simulated_cycles_total", "total simulated clock cycles"),

		trains:  newJobMetrics(reg, vars, "train", "training"),
		defends: newJobMetrics(reg, vars, "defend", "defense-evaluation"),

		tvlaTraces:   reg.Counter("emsim_tvla_traces_total", "traces simulated by /v1/tvla assessments"),
		defendTraces: reg.Counter("emsim_defend_traces_total", "traces simulated by defense-evaluation campaigns"),
		tvlaAnalysis: reg.Histogram("emsim_tvla_analysis_seconds", "statistic-extraction time of a /v1/tvla assessment", nil),
		vars:         vars,
	}
	m.reqLatency = make(map[string]*obs.Histogram, len(endpoints))
	help := "request execution time on a worker, by endpoint"
	for _, ep := range endpoints {
		m.reqLatency[ep] = reg.Histogram("emsim_request_duration_seconds", help, nil, "endpoint", ep)
		help = ""
	}
	help = "training campaign phase duration"
	for _, p := range phases {
		m.phaseLatency = append(m.phaseLatency,
			reg.Histogram("emsim_train_phase_duration_seconds", help, nil, "phase", p))
		help = ""
	}

	// The /varz bridge: identical JSON keys to the pre-registry expvar
	// era, read through the registry handles.
	m.vars.Set("queue_depth", intVar(m.queueDepth))
	m.vars.Set("in_flight", intVar(m.inFlight))
	m.vars.Set("requests_accepted", intVar(m.requests))
	m.vars.Set("requests_rejected", intVar(m.rejected))
	m.vars.Set("requests_cancelled", intVar(m.cancelled))
	m.vars.Set("cycles_simulated", intVar(m.cycles))
	m.vars.Set("latency", expvar.Func(func() any { return m.latency.summary() }))
	m.vars.Set("tvla_traces", intVar(m.tvlaTraces))
	m.vars.Set("defend_traces", intVar(m.defendTraces))
	return m
}

// observeRequest records one completed job's execution time into the
// /varz percentile ring and the endpoint's Prometheus histogram.
func (m *metrics) observeRequest(endpoint string, d time.Duration) {
	m.latency.observe(d)
	h := m.reqLatency[endpoint]
	if h == nil {
		h = m.reqLatency["other"]
	}
	h.Observe(d.Seconds())
}

// observePhase records one training phase's campaign duration.
func (m *metrics) observePhase(phase int, d time.Duration) {
	if phase >= 0 && phase < len(m.phaseLatency) {
		m.phaseLatency[phase].Observe(d.Seconds())
	}
}

// writePrometheus renders the registry for GET /metrics.
func (m *metrics) writePrometheus(w io.Writer) error { return m.reg.WritePrometheus(w) }

// Vars exposes the metrics map so cmd/emsim-serve can publish it in the
// process-global expvar namespace.
func (m *metrics) Vars() *expvar.Map { return m.vars }

// intVar bridges a registry counter or gauge into /varz.
func intVar(v interface{ Value() int64 }) expvar.Func {
	return func() any { return v.Value() }
}

// jobMetrics counts one kind of background job.
type jobMetrics struct {
	submitted *obs.Counter            // jobs accepted
	active    *obs.Gauge              // jobs queued or running
	finished  map[string]*obs.Counter // finished jobs, by final state
}

// newJobMetrics registers one job kind's series: emsim_<kind>_jobs_* in
// Prometheus, with HELP text naming the jobs as what, and <kind>s_* in
// /varz.
func newJobMetrics(reg *obs.Registry, vars *expvar.Map, kind, what string) *jobMetrics {
	name, stem := "emsim_"+kind+"_jobs_", kind+"s_"
	jm := &jobMetrics{
		submitted: reg.Counter(name+"submitted_total", what+" jobs accepted"),
		active:    reg.Gauge(name+"active", what+" jobs queued or running"),
		finished:  map[string]*obs.Counter{},
	}
	vars.Set(stem+"submitted", intVar(jm.submitted))
	vars.Set(stem+"active", intVar(jm.active))
	help := "finished " + what + " jobs by outcome"
	for _, state := range []string{jobDone, jobFailed, jobCancelled} {
		jm.finished[state] = reg.Counter(name+"total", help, "state", state)
		vars.Set(stem+state, intVar(jm.finished[state]))
		help = ""
	}
	return jm
}
