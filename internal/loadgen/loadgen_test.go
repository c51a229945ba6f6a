package loadgen

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"gridsched/internal/rng"
	"gridsched/internal/service"
)

func TestParseMix(t *testing.T) {
	m, err := parseMix("minmin:3, tabu ,pa-cga:2")
	if err != nil {
		t.Fatal(err)
	}
	if m.total != 6 || len(m.names) != 3 {
		t.Fatalf("mix = %+v, want 3 names totalling 6", m)
	}
	// Weighted draws roughly follow the weights.
	r := rng.New(7)
	counts := map[string]int{}
	for i := 0; i < 6000; i++ {
		counts[m.pick(r)]++
	}
	if counts["minmin"] < 2500 || counts["tabu"] > 1500 || counts["pa-cga"] < 1500 {
		t.Errorf("draw counts off the 3:1:2 mix: %v", counts)
	}

	for _, bad := range []string{"", "  ,  ", "minmin:0", "minmin:-1", "minmin:x", ":3"} {
		if _, err := parseMix(bad); err == nil {
			t.Errorf("parseMix(%q) accepted", bad)
		}
	}
	// A bare name defaults to weight 1.
	one, err := parseMix("minmin")
	if err != nil || one.total != 1 {
		t.Fatalf("bare name: %v / %+v", err, one)
	}
}

func TestSummarize(t *testing.T) {
	if s := summarize(nil); s.Count != 0 {
		t.Fatalf("empty summary: %+v", s)
	}
	samples := make([]time.Duration, 100)
	for i := range samples {
		samples[i] = time.Duration(i+1) * time.Millisecond
	}
	s := summarize(samples)
	if s.Count != 100 || s.Min != time.Millisecond || s.Max != 100*time.Millisecond {
		t.Fatalf("summary bounds: %+v", s)
	}
	if s.P50 != 50*time.Millisecond || s.P95 != 95*time.Millisecond || s.P99 != 99*time.Millisecond {
		t.Fatalf("percentiles: p50=%v p95=%v p99=%v", s.P50, s.P95, s.P99)
	}
	if s.Mean != 50500*time.Microsecond {
		t.Fatalf("mean = %v, want 50.5ms", s.Mean)
	}
}

func TestConfigValidation(t *testing.T) {
	ctx := context.Background()
	if _, err := Run(ctx, Config{}); err == nil {
		t.Error("Run without BaseURL accepted")
	}
	if _, err := Run(ctx, Config{BaseURL: "http://x", Duration: -time.Second}); err == nil {
		t.Error("Run with negative duration accepted")
	}
	if _, err := Run(ctx, Config{BaseURL: "http://x", Duration: time.Second, SolverMix: "a:0"}); err == nil {
		t.Error("Run with bad solver mix accepted")
	}
	if _, err := Run(ctx, Config{BaseURL: "http://x", Duration: time.Second, InstanceMix: ":"}); err == nil {
		t.Error("Run with bad instance mix accepted")
	}
}

// TestClosedLoopAgainstService drives a real in-process service for a
// short window and checks the report is coherent: work completed,
// latency summaries populated, achieved QPS consistent with the
// completion count.
func TestClosedLoopAgainstService(t *testing.T) {
	if testing.Short() {
		t.Skip("load run in -short mode")
	}
	svc := service.New(service.Config{Workers: 2, QueueSize: 32})
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	rep, err := Run(context.Background(), Config{
		BaseURL:     ts.URL,
		Concurrency: 4,
		Duration:    500 * time.Millisecond,
		Warmup:      100 * time.Millisecond,
		SolverMix:   "minmin:3,maxmin:1",
		InstanceMix: "u_c_hihi.0@64x8:2,u_i_lolo.0@64x8:1",
		Seed:        42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed == 0 {
		t.Fatalf("no jobs completed: %+v", rep)
	}
	if rep.Failed != 0 {
		t.Errorf("failures against a healthy service: %+v", rep)
	}
	if rep.AchievedQPS <= 0 {
		t.Errorf("AchievedQPS = %v", rep.AchievedQPS)
	}
	wantQPS := float64(rep.Completed) / rep.Measured.Seconds()
	if diff := rep.AchievedQPS - wantQPS; diff > 0.01 || diff < -0.01 {
		t.Errorf("AchievedQPS %v inconsistent with %d completed over %v", rep.AchievedQPS, rep.Completed, rep.Measured)
	}
	if rep.SubmitLatency.Count == 0 || rep.E2ELatency.Count == 0 {
		t.Errorf("latency summaries empty: %+v", rep)
	}
	if rep.SubmitLatency.P50 > rep.SubmitLatency.P99 || rep.E2ELatency.P50 > rep.E2ELatency.P99 {
		t.Errorf("non-monotonic percentiles: %+v / %+v", rep.SubmitLatency, rep.E2ELatency)
	}
	if rep.String() == "" {
		t.Error("empty text report")
	}

	// The service's own stats account for (at least) every job the
	// window saw finish. Stats count a job in the step that makes it
	// terminal, so a plain read after Run is exact; it also counts
	// warmup jobs, hence >= not ==.
	var retired int64
	for _, sv := range svc.Stats().Solvers {
		retired += sv.Done + sv.Failed + sv.Cancelled
	}
	if want := rep.Completed + rep.Failed + rep.Cancelled; retired < want {
		t.Errorf("service stats count %d retired jobs, but the window saw %d finish", retired, want)
	}

	// The closed loop really closed: the service saw every submitted job
	// through to terminal (nothing still queued or running).
	st := svc.Stats()
	if st.Queued != 0 || st.Running != 0 {
		t.Errorf("service not quiet after Run: queued=%d running=%d", st.Queued, st.Running)
	}
}

// TestPacedRun checks TargetQPS pacing: the achieved rate stays well
// below the closed-loop maximum for a trivial solver.
func TestPacedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("load run in -short mode")
	}
	svc := service.New(service.Config{Workers: 2, QueueSize: 32})
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	rep, err := Run(context.Background(), Config{
		BaseURL:     ts.URL,
		Concurrency: 4,
		TargetQPS:   20,
		Duration:    500 * time.Millisecond,
		InstanceMix: "u_c_hihi.0@32x4",
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed == 0 {
		t.Fatalf("paced run completed nothing: %+v", rep)
	}
	// 20 qps over 0.5s ≈ 10 jobs; allow generous jitter but catch a
	// pacer that does not pace at all (minmin at 32x4 would complete
	// hundreds unpaced).
	if rep.Submitted > 30 {
		t.Errorf("pacing ineffective: %d submitted at target 20 qps over 500ms", rep.Submitted)
	}
}
