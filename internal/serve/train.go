package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"

	"emsim/internal/core"
	"emsim/internal/device"
	"emsim/internal/obs"
)

// spanTrainJob covers one training campaign's execution (slot acquired
// to model serialized), on a lane claimed per job.
var spanTrainJob = obs.RegisterSpan("serve.train-job")

// This file is the training adapter over the job registry (jobs.go):
// POST /v1/train submits a campaign against a fresh synthetic device;
// GET /v1/train/{id} reports phase-level progress (fed by the Trainer's
// progress callback) and, once done, the fitted model; DELETE cancels.
// Every server shares one measurement cache, making a re-submitted
// campaign against the same device configuration mostly cache hits.

// trainRequest is the POST /v1/train body. Zero-valued campaign fields
// take the core.TrainOptions defaults; zero-valued device fields take
// the default bench.
type trainRequest struct {
	Seed                int64 `json:"seed"`
	Runs                int   `json:"runs"`
	InstancesPerCluster int   `json:"instances_per_cluster"`
	MixedPrograms       int   `json:"mixed_programs"`
	MixedLength         int   `json:"mixed_length"`
	// Workers overrides the server's per-campaign fan-out width.
	Workers int `json:"workers"`
	// TechSeed / NoiseSeed select the synthetic board instance.
	TechSeed  int64 `json:"tech_seed"`
	NoiseSeed int64 `json:"noise_seed"`
}

// trainStatus is the wire form of a job snapshot.
type trainStatus struct {
	ID        string          `json:"job_id"`
	State     string          `json:"state"`
	Phase     string          `json:"phase,omitempty"`
	Done      int             `json:"done"`
	Total     int             `json:"total"`
	ElapsedMS int64           `json:"elapsed_ms"`
	Error     string          `json:"error,omitempty"`
	Model     json.RawMessage `json:"model,omitempty"`
}

// trainProgress is a training job's progress: the phase on show and its
// measurement counts.
type trainProgress struct {
	phase       core.Phase
	done, total int
}

// observeTrain folds one Trainer progress event into the job. Campaign
// workers invoke it concurrently and completion counts may arrive out
// of order within a phase, so stale events (a lower Done for the phase
// already shown) are dropped to keep the visible counter monotonic.
func observeTrain(j *asyncJob[trainProgress], ev core.Progress) {
	j.mu.Lock()
	p := &j.progress
	switch {
	case ev.Phase != p.phase:
		p.phase, p.done, p.total = ev.Phase, ev.Done, ev.Total
	case ev.Done > p.done:
		p.done, p.total = ev.Done, ev.Total
	}
	j.mu.Unlock()
}

// trainWire renders a training job snapshot as its trainStatus.
func trainWire(v jobView[trainProgress]) any {
	st := trainStatus{
		ID:        v.ID,
		State:     v.State,
		Done:      v.Progress.done,
		Total:     v.Progress.total,
		ElapsedMS: v.ElapsedMS,
		Error:     v.Error,
		Model:     v.Result,
	}
	if v.State != jobQueued {
		st.Phase = v.Progress.phase.String()
	}
	return st
}

func (s *Server) handleTrainSubmit(w http.ResponseWriter, r *http.Request) {
	var req trainRequest
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxRequestBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decode request: %v", err)
		return
	}
	if req.Seed < 0 || req.Runs < 0 || req.InstancesPerCluster < 0 ||
		req.MixedPrograms < 0 || req.MixedLength < 0 || req.Workers < 0 {
		writeError(w, http.StatusBadRequest, "campaign fields must be non-negative")
		return
	}
	if req.Runs > s.cfg.MaxTrainRuns {
		writeError(w, http.StatusBadRequest, "runs %d exceeds limit %d", req.Runs, s.cfg.MaxTrainRuns)
		return
	}
	if req.InstancesPerCluster > 500 || req.MixedPrograms > 64 || req.MixedLength > 20000 {
		writeError(w, http.StatusBadRequest, "campaign size exceeds limits (instances <= 500, mixed programs <= 64, mixed length <= 20000)")
		return
	}

	opts := core.TrainOptions{
		Seed:                req.Seed,
		Runs:                req.Runs,
		InstancesPerCluster: req.InstancesPerCluster,
		MixedPrograms:       req.MixedPrograms,
		MixedLength:         req.MixedLength,
		Workers:             req.Workers,
		Cache:               s.trainCache,
	}
	if opts.Workers == 0 {
		opts.Workers = s.cfg.TrainWorkers
	}
	devOpts := device.DefaultOptions()
	devOpts.CPU = s.cfg.CPU
	if req.TechSeed != 0 {
		devOpts.TechSeed = req.TechSeed
	}
	if req.NoiseSeed != 0 {
		devOpts.NoiseSeed = req.NoiseSeed
	}

	s.trains.accept(s, w, func(ctx context.Context, j *asyncJob[trainProgress]) ([]byte, error) {
		opts.Progress = func(ev core.Progress) { observeTrain(j, ev) }
		dev, err := device.New(devOpts)
		if err != nil {
			return nil, err
		}
		t, err := core.NewTrainer(dev, opts)
		if err != nil {
			return nil, err
		}
		m, err := t.Run(ctx)
		for p, d := range t.PhaseTimings() {
			if d > 0 {
				s.met.observePhase(p, d)
			}
		}
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	})
}
