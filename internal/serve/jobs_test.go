package serve

import (
	"context"
	"encoding/json"
	"expvar"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"emsim/internal/obs"
)

// The HTTP tests name job states per kind; every kind shares one
// vocabulary.
const (
	trainQueued, trainRunning, trainDone, trainCancelled     = jobQueued, jobRunning, jobDone, jobCancelled
	defendQueued, defendRunning, defendDone, defendCancelled = jobQueued, jobRunning, jobDone, jobCancelled
)

// newStubRegistry builds a registry of progress-free jobs for driving
// the lifecycle with stub run funcs.
func newStubRegistry(base context.Context, concurrent int) *registry[struct{}] {
	met := newJobMetrics(obs.NewRegistry(), new(expvar.Map), "stub", "stub")
	return newRegistry("stub", "stub", spanTrainJob, base, concurrent, met,
		func(v jobView[struct{}]) any { return v })
}

// gated returns a run func that finishes when gate closes, or with the
// context's error when the job is cancelled first.
func gated(gate <-chan struct{}) jobFunc[struct{}] {
	return func(ctx context.Context, _ *asyncJob[struct{}]) ([]byte, error) {
		select {
		case <-gate:
			return []byte("{}"), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// waitState polls a job until it reaches state.
func waitState(t *testing.T, j *asyncJob[struct{}], state string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for j.view(false).State != state {
		if time.Now().After(deadline) {
			t.Fatalf("%s stuck in %q, want %q", j.id, j.view(false).State, state)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestRegistryBoundEvictsOldestFinished(t *testing.T) {
	r := newStubRegistry(context.Background(), maxJobRecords)
	t.Cleanup(r.drain)
	gates := make([]chan struct{}, maxJobRecords)
	jobs := make([]*asyncJob[struct{}], maxJobRecords)
	for i := range gates {
		gates[i] = make(chan struct{})
		j, err := r.submit(gated(gates[i]))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		jobs[i] = j
	}
	if j, err := r.submit(gated(nil)); err != errQueueFull {
		t.Fatalf("submit over %d live jobs = (%v, %v), want errQueueFull", maxJobRecords, j, err)
	}

	// Finish the second job: the next submit evicts it — the oldest
	// finished job, not the oldest job.
	close(gates[1])
	waitState(t, jobs[1], jobDone)
	if _, err := r.submit(gated(nil)); err != nil {
		t.Fatalf("submit after a job finished: %v", err)
	}
	if r.get(jobs[0].id) == nil {
		t.Errorf("live job %s was evicted", jobs[0].id)
	}
	req := httptest.NewRequest(http.MethodGet, "/v1/stub/"+jobs[1].id, nil)
	req.SetPathValue("id", jobs[1].id)
	rec := httptest.NewRecorder()
	r.handleStatus(rec, req)
	if rec.Code != http.StatusNotFound {
		t.Errorf("GET evicted job: status %d, want 404", rec.Code)
	}
	if got := r.met.finished[jobDone].Value(); got != 1 {
		t.Errorf("done counter = %d, want 1", got)
	}
}

// fillRegistry submits maxJobRecords jobs that run until cancelled.
func fillRegistry[P any](t *testing.T, r *registry[P]) {
	t.Helper()
	for i := 0; i < maxJobRecords; i++ {
		_, err := r.submit(func(ctx context.Context, _ *asyncJob[P]) ([]byte, error) {
			<-ctx.Done()
			return nil, ctx.Err()
		})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
}

func TestJobQueueFull429(t *testing.T) {
	s, ts := newTestServer(t, Config{RetryAfter: 2 * time.Second})
	fillRegistry(t, s.trains)
	fillRegistry(t, s.defends)
	for path, body := range map[string]any{
		"/v1/train":  trainRequest{Runs: 3},
		"/v1/defend": defendRequest{Defense: "shuffle"},
	} {
		resp, data := postJSON(t, ts.URL+path, body)
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Errorf("%s with a full registry: status %d (%s), want 429", path, resp.StatusCode, data)
		}
		if got := resp.Header.Get("Retry-After"); got != "2" {
			t.Errorf("%s: Retry-After %q, want \"2\"", path, got)
		}
	}
}

func TestJobSubmitAfterClose503(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.Close()
	for path, body := range map[string]any{
		"/v1/train":  trainRequest{Runs: 3},
		"/v1/defend": defendRequest{Defense: "shuffle"},
	} {
		resp, data := postJSON(t, ts.URL+path, body)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("%s after Close: status %d (%s), want 503", path, resp.StatusCode, data)
		}
	}
}

// opaqueContext hides its Done channel from the context package, so a
// child context parented on it holds one propagation goroutine until
// the child is cancelled.
type opaqueContext struct{ done chan struct{} }

func (opaqueContext) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c opaqueContext) Done() <-chan struct{}     { return c.done }
func (opaqueContext) Err() error                  { return nil }
func (opaqueContext) Value(any) any               { return nil }

func TestFinishedJobsReleaseContext(t *testing.T) {
	// A job's context must be released when its run ends, not only on
	// DELETE or drain: otherwise every finished job stays registered
	// under Config.BaseContext for the life of the process.
	s, err := New(serveTestModel(t), Config{BaseContext: opaqueContext{done: make(chan struct{})}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	do := func(method, path string, body any) (int, []byte) {
		var payload string
		if body != nil {
			raw, err := json.Marshal(body)
			if err != nil {
				t.Fatal(err)
			}
			payload = string(raw)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(payload)))
		return rec.Code, rec.Body.Bytes()
	}
	baseline := stableGoroutineCount()

	const perKind = 3
	var ids []string
	for i := 0; i < perKind; i++ {
		for path, body := range map[string]any{
			"/v1/train": trainRequest{Seed: 7, Runs: 3, InstancesPerCluster: 10, MixedPrograms: 2, MixedLength: 200},
			"/v1/defend": defendRequest{Defense: "dummy:rate=0.2", Seed: int64(i),
				TVLATraces: 4, CPATraces: 12, CPAStep: 12, CPAPoints: 32},
		} {
			code, data := do(http.MethodPost, path, body)
			var st struct {
				ID string `json:"job_id"`
			}
			if code != http.StatusAccepted || json.Unmarshal(data, &st) != nil {
				t.Fatalf("POST %s: status %d: %s", path, code, data)
			}
			ids = append(ids, path+"/"+st.ID)
		}
	}
	for _, path := range ids {
		deadline := time.Now().Add(120 * time.Second)
		for {
			_, data := do(http.MethodGet, path, nil)
			var st struct{ State string }
			if err := json.Unmarshal(data, &st); err != nil {
				t.Fatal(err)
			}
			if st.State == jobDone {
				break
			}
			if (st.State != jobQueued && st.State != jobRunning) || time.Now().After(deadline) {
				t.Fatalf("%s ended %q, want done: %s", path, st.State, data)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	deadline := time.Now().Add(10 * time.Second)
	after := stableGoroutineCount()
	for after > baseline && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
		after = stableGoroutineCount()
	}
	if after > baseline {
		buf := make([]byte, 1<<16)
		n := runtime.Stack(buf, true)
		t.Errorf("%d finished jobs left %d goroutines over the %d baseline\n%s",
			2*perKind, after-baseline, baseline, buf[:n])
	}
}
