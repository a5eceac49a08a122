package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"emsim/internal/core"
)

// Regression tests for the lockscope/ctxflow fixes: progress observers
// must tolerate concurrent, out-of-order delivery; job and registry
// locks must not wrap foreign code (error rendering, cancel funcs); and
// Config.BaseContext must parent every background campaign.

func TestTrainObserveMonotonic(t *testing.T) {
	// Campaign workers deliver completion counts out of order; a stale
	// count must not wind the visible counter backwards, while a new
	// phase resets it.
	j := &asyncJob[trainProgress]{id: "train-1", state: jobRunning}
	status := func() trainStatus { return trainWire(j.view(false)).(trainStatus) }
	observeTrain(j, core.Progress{Phase: core.PhaseKernel, Done: 2, Total: 5})
	observeTrain(j, core.Progress{Phase: core.PhaseKernel, Done: 1, Total: 5})
	if st := status(); st.Done != 2 {
		t.Errorf("stale event moved the counter: Done = %d, want 2", st.Done)
	}
	observeTrain(j, core.Progress{Phase: core.PhaseBaseline, Done: 0, Total: 7})
	st := status()
	if st.Phase != core.PhaseBaseline.String() || st.Done != 0 || st.Total != 7 {
		t.Errorf("phase change not applied: %+v", st)
	}
}

func TestDefendObserveMonotonic(t *testing.T) {
	j := &asyncJob[defendProgress]{id: "defend-1", state: jobRunning}
	status := func() defendStatus { return defendWire(j.view(false)).(defendStatus) }
	reported := observeDefend(j, "baseline", 3, 10)
	reported += observeDefend(j, "baseline", 2, 10)
	if st := status(); st.Done != 3 || reported != 3 {
		t.Errorf("stale event moved the counter: Done = %d, reported %d, want 3", st.Done, reported)
	}
	reported += observeDefend(j, "shuffle", 1, 10)
	st := status()
	if st.Arm != "shuffle" || st.Done != 4 || st.Total != 20 || reported != 4 {
		t.Errorf("arm change not accumulated: %+v (reported %d)", st, reported)
	}
}

// statusErr is an error whose rendering calls back into the job it is
// being recorded on — the sharpest form of "Error is foreign code".
type statusErr struct{ status func() }

func (e statusErr) Error() string {
	e.status()
	return "boom"
}

// finishOutsideLock records err on a running job whose error renders by
// taking the job's own snapshot, failing the test if finish deadlocks.
func finishOutsideLock[P any](t *testing.T, j *asyncJob[P], status func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		j.finish(nil, statusErr{status: status})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("finish deadlocked rendering the error under the job lock")
	}
}

func TestTrainFinishRendersErrorOutsideLock(t *testing.T) {
	// finish must render err.Error() before taking the job lock; an
	// error that re-enters status() deadlocked under the old ordering.
	j := &asyncJob[trainProgress]{id: "train-1", state: jobRunning}
	status := func() trainStatus { return trainWire(j.view(false)).(trainStatus) }
	finishOutsideLock(t, j, func() { status() })
	if st := status(); st.State != jobFailed || st.Error != "boom" {
		t.Errorf("finish recorded %+v, want failed/boom", st)
	}
}

func TestDefendFinishRendersErrorOutsideLock(t *testing.T) {
	j := &asyncJob[defendProgress]{id: "defend-1", state: jobRunning}
	status := func() defendStatus { return defendWire(j.view(false)).(defendStatus) }
	finishOutsideLock(t, j, func() { status() })
	if st := status(); st.State != jobFailed || st.Error != "boom" {
		t.Errorf("finish recorded %+v, want failed/boom", st)
	}
}

func TestDrainCancelsOutsideRegistryLock(t *testing.T) {
	// drain snapshots jobs under the registry lock but runs the cancel
	// funcs outside it. A cancel that re-enters the registry (context
	// machinery running arbitrary callbacks) deadlocked under the old
	// ordering.
	r := newStubRegistry(context.Background(), 1)
	j := &asyncJob[struct{}]{id: "stub-1", state: jobQueued}
	j.cancel = func() { r.get(j.id) }
	r.jobs[j.id] = j
	r.order = append(r.order, j.id)

	done := make(chan struct{})
	go func() {
		r.drain()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("drain deadlocked running a cancel func under the registry lock")
	}
}

func TestBaseContextCancelsJobs(t *testing.T) {
	// Config.BaseContext parents every background campaign: cancelling
	// it must unwind a running training job just like its DELETE route.
	base, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, ts := newTestServer(t, Config{BaseContext: base})

	// A campaign big enough to still be in flight when the cancel lands.
	resp, data := postJSON(t, ts.URL+"/v1/train", trainRequest{Runs: 150, InstancesPerCluster: 200})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, data)
	}
	var sub trainStatus
	if err := json.Unmarshal(data, &sub); err != nil {
		t.Fatal(err)
	}
	cancel()
	st := pollTrain(t, ts.URL, sub.ID, trainQueued, trainRunning)
	if st.State != trainCancelled {
		t.Fatalf("job ended %q (error %q) after base-context cancel, want cancelled", st.State, st.Error)
	}
}
