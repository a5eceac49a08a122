package serve

import (
	"context"
	"encoding/json"
	"net/http"

	"emsim/internal/defend"
	"emsim/internal/obs"
)

// spanDefendJob covers one defense evaluation's execution, on a lane
// claimed per job.
var spanDefendJob = obs.RegisterSpan("serve.defend-job")

// This file is the countermeasure-evaluation adapter over the job
// registry (jobs.go): POST /v1/defend submits a defend.Evaluate
// campaign against the server's model; GET /v1/defend/{id} reports
// per-arm trace progress and, once done, the SecurityReport; DELETE
// cancels. A campaign simulates on the order of a thousand AES traces
// per arm.

// defendRequest is the POST /v1/defend body. Zero-valued campaign
// fields take the defend.Options defaults.
type defendRequest struct {
	// Defense is the countermeasure spec, e.g. "shuffle",
	// "shuffle:window=16", "dummy:rate=0.2", "jitter:rate=0.1,region=64".
	Defense string `json:"defense"`
	Seed    int64  `json:"seed"`
	// Workers overrides the server's per-campaign simulation fan-out.
	Workers    int     `json:"workers"`
	TVLATraces int     `json:"tvla_traces"`
	CPATraces  int     `json:"cpa_traces"`
	CPAStep    int     `json:"cpa_step"`
	CPAPoints  int     `json:"cpa_points"`
	NoiseStd   float64 `json:"noise_std"`
}

// defendStatus is the wire form of a job snapshot.
type defendStatus struct {
	ID        string          `json:"job_id"`
	State     string          `json:"state"`
	Arm       string          `json:"arm,omitempty"` // campaign arm currently simulating
	Done      int             `json:"done"`          // traces simulated across both arms
	Total     int             `json:"total"`
	ElapsedMS int64           `json:"elapsed_ms"`
	Error     string          `json:"error,omitempty"`
	Report    json.RawMessage `json:"report,omitempty"`
}

// defendProgress is a defense job's progress: the arm simulating now and
// the traces done in each arm (baseline, defended).
type defendProgress struct {
	arm      string
	armDone  [2]int
	armTotal int // traces per arm
}

// observeDefend folds one Evaluate progress event into the job and
// returns how many traces it newly reports. Arms run sequentially (so
// the most recent arm is the live one) but within an arm the simulation
// workers invoke it concurrently, with counts possibly out of order;
// stale per-arm counts are dropped to keep the totals monotonic.
func observeDefend(j *asyncJob[defendProgress], arm string, done, total int) int {
	i := 1
	if arm == "baseline" {
		i = 0
	}
	j.mu.Lock()
	p := &j.progress
	p.arm, p.armTotal = arm, total
	delta := max(done-p.armDone[i], 0)
	p.armDone[i] += delta
	j.mu.Unlock()
	return delta
}

// defendWire renders a defense job snapshot as its defendStatus.
func defendWire(v jobView[defendProgress]) any {
	p := v.Progress
	return defendStatus{
		ID:        v.ID,
		State:     v.State,
		Arm:       p.arm,
		Done:      p.armDone[0] + p.armDone[1],
		Total:     2 * p.armTotal,
		ElapsedMS: v.ElapsedMS,
		Error:     v.Error,
		Report:    v.Result,
	}
}

func (s *Server) handleDefendSubmit(w http.ResponseWriter, r *http.Request) {
	var req defendRequest
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxRequestBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decode request: %v", err)
		return
	}
	spec, err := defend.ParseSpec(req.Defense)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.Seed < 0 || req.Workers < 0 || req.TVLATraces < 0 || req.CPATraces < 0 ||
		req.CPAStep < 0 || req.CPAPoints < 0 || req.NoiseStd < 0 {
		writeError(w, http.StatusBadRequest, "campaign fields must be non-negative")
		return
	}
	if req.TVLATraces > s.cfg.MaxDefendTraces || req.CPATraces > s.cfg.MaxDefendTraces {
		writeError(w, http.StatusBadRequest, "trace budget exceeds limit %d", s.cfg.MaxDefendTraces)
		return
	}
	// Reject undersized budgets at the API edge with the same guard the
	// evaluator applies, instead of accepting the job and failing it.
	if err := defend.CheckBudget(req.TVLATraces, req.CPATraces, req.CPAStep); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	opts := defend.Options{
		Model:      s.model,
		CPU:        s.cfg.CPU,
		Defense:    spec,
		Seed:       req.Seed,
		Workers:    req.Workers,
		TVLATraces: req.TVLATraces,
		CPATraces:  req.CPATraces,
		CPAStep:    req.CPAStep,
		CPAPoints:  req.CPAPoints,
		NoiseStd:   req.NoiseStd,
	}
	if opts.Workers == 0 {
		opts.Workers = s.cfg.DefendWorkers
	}

	s.defends.accept(s, w, func(ctx context.Context, j *asyncJob[defendProgress]) ([]byte, error) {
		opts.Progress = func(arm string, done, total int) {
			s.met.defendTraces.Add(int64(observeDefend(j, arm, done, total)))
		}
		report, err := defend.Evaluate(ctx, opts)
		if err != nil {
			return nil, err
		}
		return json.Marshal(report)
	})
}
