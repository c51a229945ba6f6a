package service

import (
	"context"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// solverCount returns the named solver's retirement counters from a
// stats snapshot (zero when the solver has retired nothing).
func solverCount(st Stats, name string) SolverStats {
	for _, sv := range st.Solvers {
		if sv.Solver == name {
			return sv
		}
	}
	return SolverStats{Solver: name}
}

// TestStatsExactAfterTerminal pins the stats read contract: a job is
// counted in the same step that makes it terminal, so a plain Stats()
// right after Wait returns — or a /v1/stats read right after a poll
// reported the terminal state — already includes it, with no sleep and
// no retry. A job cancelled while queued is counted at the cancel, and
// exactly once: the worker that later drains its queue slot must not
// fold it again.
func TestStatsExactAfterTerminal(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 1, QueueSize: 8})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	spec := JobSpec{Solver: "minmin", Instance: "u_c_hihi.0@64x8"}

	// Go API: every Wait is followed by an exact read.
	var done int64
	for i := 0; i < 5; i++ {
		j, err := svc.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := svc.Wait(ctx, j.ID); err != nil {
			t.Fatal(err)
		}
		done++
		if got := solverCount(svc.Stats(), "minmin"); got.Done != done {
			t.Fatalf("after Wait on job %d: Stats() minmin done = %d, want %d", i, got.Done, done)
		}
	}

	// HTTP: every poll that reports a terminal state is followed by an
	// exact /v1/stats read.
	var stats struct {
		Solvers []struct {
			Solver string `json:"solver"`
			Done   int64  `json:"done"`
		} `json:"solvers"`
	}
	for i := 0; i < 5; i++ {
		var sub jobJSON
		if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs",
			`{"solver":"minmin","instance":"u_c_hihi.0@64x8"}`, &sub); code != http.StatusAccepted {
			t.Fatalf("submit: status %d", code)
		}
		pollState(t, ts.URL, sub.ID, 10*time.Second, func(j jobJSON) bool { return JobState(j.State).Terminal() })
		done++
		doJSON(t, http.MethodGet, ts.URL+"/v1/stats", "", &stats)
		var got int64
		for _, sv := range stats.Solvers {
			if sv.Solver == "minmin" {
				got = sv.Done
			}
		}
		if got != done {
			t.Fatalf("after polling job %s terminal: /v1/stats minmin done = %d, want %d", sub.ID, got, done)
		}
	}

	// Cancelled while queued: the blocker holds the only worker, so the
	// victim is still in the run queue when it is cancelled.
	blocker, err := svc.Submit(JobSpec{Solver: "test-block", Instance: "u_c_hihi.0@64x8"})
	if err != nil {
		t.Fatal(err)
	}
	pollState(t, ts.URL, blocker.ID, 5*time.Second, func(j jobJSON) bool { return j.State == StateRunning })
	victim, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Cancel(victim.ID); err != nil {
		t.Fatal(err)
	}
	if j, err := svc.Wait(ctx, victim.ID); err != nil || j.State != StateCancelled {
		t.Fatalf("victim: state %s, err %v; want cancelled", j.State, err)
	}
	if got := solverCount(svc.Stats(), "minmin"); got.Cancelled != 1 || got.Done != done {
		t.Fatalf("after Wait on the queued-cancelled job: minmin %+v, want cancelled 1, done %d", got, done)
	}

	// Release the worker; it drains the victim's slot, then runs the
	// follower. One worker means FIFO: once the follower is done, the
	// victim's slot has been drained.
	follower, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Cancel(blocker.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Wait(ctx, follower.ID); err != nil {
		t.Fatal(err)
	}
	done++
	st := svc.Stats()
	if got := solverCount(st, "minmin"); got.Cancelled != 1 || got.Done != done || got.Failed != 0 {
		t.Errorf("after the drain: minmin %+v, want done %d, cancelled exactly 1", got, done)
	}
	if got := solverCount(st, "test-block"); got.Cancelled != 1 {
		t.Errorf("blocker cancelled count = %d, want 1", got.Cancelled)
	}
}

// TestStatsReadLockFree pins the acceptance criterion that /v1/stats
// and /metrics read only atomics: with the job-store lock and the
// instance-cache lock held hostage, Stats() and a full metrics scrape
// must still return, and the read must count the retired job.
func TestStatsReadLockFree(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 2, QueueSize: 8})

	// Retire some work first so the counters are non-trivial.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	j, err := svc.Submit(JobSpec{Solver: "minmin", Instance: "u_c_hihi.0@64x8"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Wait(ctx, j.ID); err != nil {
		t.Fatal(err)
	}

	svc.mu.Lock()
	defer svc.mu.Unlock()
	svc.cache.mu.Lock()
	defer svc.cache.mu.Unlock()

	type result struct {
		stats Stats
		body  string
	}
	got := make(chan result, 1)
	go func() {
		st := svc.Stats()
		got <- result{stats: st, body: scrape(t, ts.URL)}
	}()
	select {
	case r := <-got:
		if d := solverCount(r.stats, "minmin").Done; d != 1 {
			t.Errorf("Stats() minmin done = %d under held locks, want 1", d)
		}
		if len(r.body) == 0 {
			t.Errorf("empty metrics exposition")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Stats()/scrape blocked while the store and cache locks were held — the read path takes a lock")
	}
}

// TestListJobsFilters covers the ?state=/?limit= listing path at both
// the Go and HTTP layers, against a mixed queued/running/terminal set.
func TestListJobsFilters(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 1, QueueSize: 16})

	blocker, err := svc.Submit(JobSpec{Solver: "test-block", Instance: "u_c_hihi.0@64x8"})
	if err != nil {
		t.Fatal(err)
	}
	pollState(t, ts.URL, blocker.ID, 5*time.Second, func(j jobJSON) bool { return j.State == StateRunning })
	var queued []string
	for i := 0; i < 4; i++ {
		j, err := svc.Submit(JobSpec{Solver: "minmin", Instance: "u_c_hihi.0@64x8"})
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, j.ID)
	}

	if got := svc.ListJobs(StateQueued, 0); len(got) != 4 {
		t.Errorf("ListJobs(queued) = %d jobs, want 4", len(got))
	}
	if got := svc.ListJobs(StateRunning, 0); len(got) != 1 || got[0].ID != blocker.ID {
		t.Errorf("ListJobs(running) = %+v, want just the blocker", got)
	}
	if got := svc.ListJobs("", 2); len(got) != 2 {
		t.Errorf("ListJobs(limit=2) = %d jobs, want 2", len(got))
	}
	// Newest first: the limited listing returns the latest submissions.
	if got := svc.ListJobs(StateQueued, 1); len(got) != 1 || got[0].ID != queued[3] {
		t.Errorf("ListJobs(queued, 1) = %+v, want newest queued job %s", got, queued[3])
	}

	var list struct {
		Jobs []jobJSON `json:"jobs"`
	}
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs?state=queued", "", &list); code != http.StatusOK {
		t.Fatalf("GET ?state=queued: status %d", code)
	}
	if len(list.Jobs) != 4 {
		t.Errorf("HTTP ?state=queued returned %d jobs, want 4", len(list.Jobs))
	}
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs?state=queued&limit=2", "", &list); code != http.StatusOK || len(list.Jobs) != 2 {
		t.Errorf("HTTP ?state=queued&limit=2: status %d, %d jobs, want 200/2", code, len(list.Jobs))
	}
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs?state=bogus", "", nil); code != http.StatusBadRequest {
		t.Errorf("HTTP ?state=bogus: status %d, want 400", code)
	}
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs?limit=-3", "", nil); code != http.StatusBadRequest {
		t.Errorf("HTTP ?limit=-3: status %d, want 400", code)
	}

	if _, err := svc.Cancel(blocker.ID); err != nil {
		t.Fatal(err)
	}
}

// TestShardStormRace is the -race soak of the service core: submits,
// cancels, stats reads, listings and scrapes hammer the job store and
// the run queue at once, then Shutdown races the storm. Every accepted
// job must end terminal.
func TestShardStormRace(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 4, QueueSize: 64})

	var (
		mu       sync.Mutex
		accepted []string
		stop     atomic.Bool
		wg       sync.WaitGroup
	)
	spec := JobSpec{Solver: "minmin", Instance: "u_c_hihi.0@64x8"}
	if _, err := svc.Submit(spec); err != nil { // warm the cache
		t.Fatal(err)
	}

	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				j, err := svc.Submit(spec)
				switch err {
				case nil:
					mu.Lock()
					accepted = append(accepted, j.ID)
					n := len(accepted)
					victim := accepted[rnd.Intn(n)]
					mu.Unlock()
					if rnd.Intn(4) == 0 {
						_, _ = svc.Cancel(victim)
					}
				case ErrClosed:
					return
				case ErrQueueFull:
					time.Sleep(time.Millisecond)
				default:
					t.Errorf("Submit: %v", err)
					return
				}
			}
		}(int64(g + 1))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			_ = svc.Stats()
			_ = svc.ListJobs(StateQueued, 8)
			_ = scrape(t, ts.URL)
		}
	}()

	time.Sleep(150 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	stop.Store(true)
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	for _, id := range accepted {
		j, err := svc.Wait(ctx, id)
		if err != nil {
			t.Fatalf("Wait(%s): %v", id, err)
		}
		if !j.State.Terminal() {
			t.Fatalf("job %s stranded in %s after Shutdown", id, j.State)
		}
	}
}
