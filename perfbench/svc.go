package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gridsched/internal/service"
)

// svcHandle is the service in-process with its default configuration
// behind a loopback listener, the way cmd/loadgen runs it without
// -addr. The benchmark reaches it only over HTTP.
type svcHandle struct {
	srv *service.Server
	ts  *httptest.Server
	// seen counts jobs the clients have observed reach a terminal
	// state; a stats read that counts fewer lags the clients.
	seen atomic.Int64
	ids  atomic.Int64
}

func startService(cfg service.Config) *svcHandle {
	srv := service.New(cfg)
	return &svcHandle{srv: srv, ts: httptest.NewServer(srv.Handler())}
}

func (h *svcHandle) close() {
	h.ts.Close()
	h.srv.Close()
}

// svcJob is one submit: its body parts are sent back to back (a large
// pre-encoded matrix is shared, not copied, between submits).
type svcJob struct {
	solver string
	ref    *reference
	body   [][]byte
}

// jobView is the slice of GET /v1/jobs/{id} the benchmark reads.
type jobView struct {
	ID          string     `json:"id"`
	State       string     `json:"state"`
	Error       string     `json:"error"`
	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at"`
	FinishedAt  *time.Time `json:"finished_at"`
	Result      *struct {
		Makespan         float64 `json:"makespan"`
		Evaluations      int64   `json:"evaluations"`
		LocalSearchMoves int64   `json:"local_search_moves"`
		Duration         string  `json:"duration"`
		Assignment       []int   `json:"assignment"`
	} `json:"result"`
}

// jobRecord is what one job measured.
type jobRecord struct {
	solver       string
	latency      time.Duration // POST sent → GET returning a terminal state
	submit       time.Duration // POST round trip
	polls        []time.Duration
	bytes        int64
	queue, run   time.Duration // from the job's own timestamps
	evals, moves int64
	quality      float64 // makespan ÷ Min-min makespan
	fullEval     time.Duration
	init         time.Duration // traced search jobs: solve start → first improvement
	searchEvals  int64
	hasInit      bool
	scale        float64 // host calibration of the job's segment
}

// client is one closed-loop HTTP client: one connection, one job in
// flight, and the stats and metrics scrapes taken inside its loop.
type client struct {
	h          *svcHandle
	hc         *http.Client
	next       func() svcJob // the client's seeded job stream
	lastScrape time.Time
}

func newClient(h *svcHandle, next func() svcJob) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{h: h, hc: &http.Client{Transport: tr, Timeout: time.Minute}, next: next}
}

func (c *client) closeIdle() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole body, returning it and the
// bytes moved both ways.
func (c *client) do(method, path string, body [][]byte) (int, []byte, int64, error) {
	var rd io.Reader = http.NoBody
	var n int64
	if len(body) > 0 {
		rs := make([]io.Reader, len(body))
		for i, b := range body {
			rs[i] = bytes.NewReader(b)
			n += int64(len(b))
		}
		rd = io.MultiReader(rs...)
	}
	req, err := http.NewRequest(method, c.h.ts.URL+path, rd)
	if err != nil {
		return 0, nil, 0, err
	}
	req.ContentLength = n
	if n > 0 {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, n, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, n + int64(len(out)), err
}

// pollFirst and pollMax bound the sleep between status polls: the first
// poll is immediate, later ones back off from 100µs, so a short job is
// seen done soon after it ends and a long one costs a poll every few
// milliseconds.
const (
	pollFirst = 100 * time.Microsecond
	pollMax   = 4 * time.Millisecond
)

// runJob submits one job, polls it to a terminal state and checks the
// result. Every error is a failed job.
func (c *client) runJob(job svcJob, rec *recorder) (jobRecord, error) {
	jr := jobRecord{solver: job.solver}
	seq := c.h.ids.Add(1)
	sent := time.Now()
	code, body, n, err := c.do(http.MethodPost, "/v1/jobs", job.body)
	accepted := time.Now()
	jr.submit = accepted.Sub(sent)
	jr.bytes += n
	if err != nil {
		return jr, fmt.Errorf("submit %s: %w", job.solver, err)
	}
	if code != http.StatusAccepted {
		return jr, fmt.Errorf("submit %s: status %d: %s", job.solver, code, strings.TrimSpace(string(body)))
	}
	var v jobView
	if err := json.Unmarshal(body, &v); err != nil {
		return jr, fmt.Errorf("submit %s: %w", job.solver, err)
	}
	t := rec.root("job", seq, sent, sent)
	rec.child(t, "http.submit", 0, sent, accepted)

	jobID := v.ID
	path := "/v1/jobs/" + jobID + "?include=assignment"
	delay := pollFirst
	for first := true; ; first = false {
		if !first {
			time.Sleep(delay)
			delay = min(2*delay, pollMax)
		}
		p0 := time.Now()
		code, body, n, err = c.do(http.MethodGet, path, nil)
		p1 := time.Now()
		jr.polls = append(jr.polls, p1.Sub(p0))
		jr.bytes += n
		rec.child(t, "http.poll", 0, p0, p1)
		if err != nil {
			return jr, fmt.Errorf("poll %s: %w", jobID, err)
		}
		if code != http.StatusOK {
			return jr, fmt.Errorf("poll %s: status %d", jobID, code)
		}
		v = jobView{}
		if err := json.Unmarshal(body, &v); err != nil {
			return jr, fmt.Errorf("poll %s: %w", jobID, err)
		}
		if v.State == "done" || v.State == "failed" || v.State == "cancelled" {
			break
		}
	}
	done := time.Now()
	jr.latency = done.Sub(sent)
	c.h.seen.Add(1)
	if v.State != "done" || v.Result == nil || v.StartedAt == nil || v.FinishedAt == nil {
		return jr, fmt.Errorf("job %s (%s) ended %s: %s", v.ID, job.solver, v.State, v.Error)
	}
	started, finished := *v.StartedAt, *v.FinishedAt
	jr.queue = started.Sub(v.SubmittedAt)
	jr.run = finished.Sub(started)
	jr.evals, jr.moves = v.Result.Evaluations, v.Result.LocalSearchMoves
	jr.quality = v.Result.Makespan / job.ref.minminMakespan
	if t != nil {
		t.spans[0].End = done.Sub(rec.base).Nanoseconds()
		rec.child(t, "service.queue", 0, v.SubmittedAt, started)
		run := rec.child(t, "service.run", 0, started, finished)
		if minMinSeeded[job.solver] {
			if err := c.initSplit(&jr, v, rec, t, run); err != nil {
				return jr, err
			}
		}
		rec.commit(t)
	}

	c0 := time.Now()
	full, err := check(job.ref, solution{solver: job.solver, makespan: v.Result.Makespan, assignment: v.Result.Assignment})
	rec.commit(rec.root("check", seq, c0, time.Now()))
	jr.fullEval = full
	return jr, err
}

// initSplit reads the job's convergence trace and splits its run at
// the first improvement: the time before it is initialization (the
// Min-min seed and, for pa-cga, the population), the rest is search.
// The engine clock starts after pa-cga's population is built, so the
// init is (run − engine time) + the first event's engine offset.
func (c *client) initSplit(jr *jobRecord, v jobView, rec *recorder, t *tree, run int) error {
	code, body, _, err := c.do(http.MethodGet, "/v1/jobs/"+v.ID+"/trace", nil)
	if err != nil || code != http.StatusOK {
		return fmt.Errorf("trace %s: status %d: %v", v.ID, code, err)
	}
	var tr struct {
		Events []struct {
			Kind      string  `json:"kind"`
			Evals     int64   `json:"evals"`
			ElapsedMS float64 `json:"elapsed_ms"`
		} `json:"events"`
	}
	if err := json.Unmarshal(body, &tr); err != nil {
		return fmt.Errorf("trace %s: %w", v.ID, err)
	}
	engine, err := time.ParseDuration(v.Result.Duration)
	if err != nil {
		return fmt.Errorf("job %s duration: %w", v.ID, err)
	}
	for _, ev := range tr.Events {
		if ev.Kind != "improved" {
			continue
		}
		jr.init = jr.run - engine + time.Duration(ev.ElapsedMS*float64(time.Millisecond))
		jr.init = min(max(jr.init, 0), jr.run)
		jr.searchEvals = jr.evals - ev.Evals
		jr.hasInit = true
		started := *v.StartedAt
		rec.child(t, "solve.init", run, started, started.Add(jr.init))
		rec.child(t, "solve.search", run, started.Add(jr.init), *v.FinishedAt)
		return nil
	}
	return fmt.Errorf("trace %s: no improvement event", v.ID)
}

// scrape reads /v1/stats and /metrics from inside the client loop at
// most every scrapeEvery, timing both and measuring how many jobs the
// clients had already seen finish that the stats read does not count.
const scrapeEvery = 250 * time.Millisecond

func (c *client) scrape(ph *svcPhase) error {
	if time.Since(c.lastScrape) < scrapeEvery {
		return nil
	}
	c.lastScrape = time.Now()
	seen := c.h.seen.Load()
	s0 := time.Now()
	code, body, _, err := c.do(http.MethodGet, "/v1/stats", nil)
	statsRT := time.Since(s0)
	if err != nil || code != http.StatusOK {
		return fmt.Errorf("GET /v1/stats: status %d: %v", code, err)
	}
	st, err := parseStats(body)
	if err != nil {
		return err
	}
	m0 := time.Now()
	code, body, _, err = c.do(http.MethodGet, "/metrics", nil)
	metricsRT := time.Since(m0)
	if err != nil || code != http.StatusOK || !bytes.Contains(body, []byte("gridsched_jobs_submitted_total")) {
		return fmt.Errorf("GET /metrics: status %d: %v", code, err)
	}
	ph.mu.Lock()
	ph.statsRT = append(ph.statsRT, statsRT)
	ph.scrapeRT = append(ph.scrapeRT, metricsRT)
	ph.lagMax = max(ph.lagMax, seen-st.finished())
	ph.mu.Unlock()
	return nil
}

// statsView is the slice of /v1/stats the benchmark reads.
type statsView struct {
	Solvers []struct {
		Done      int64 `json:"done"`
		Failed    int64 `json:"failed"`
		Cancelled int64 `json:"cancelled"`
	} `json:"solvers"`
}

func parseStats(body []byte) (statsView, error) {
	var st statsView
	if err := json.Unmarshal(body, &st); err != nil {
		return st, fmt.Errorf("GET /v1/stats: %w", err)
	}
	return st, nil
}

func (s statsView) finished() int64 {
	var n int64
	for _, sv := range s.Solvers {
		n += sv.Done + sv.Failed + sv.Cancelled
	}
	return n
}

// svcPhase is one measured stretch of closed-loop load.
type svcPhase struct {
	mu                sync.Mutex
	jobs              []jobRecord
	errs              []error
	statsRT, scrapeRT []time.Duration
	lagMax            int64
	elapsed, scaled   time.Duration // client time, raw and host-scaled
	use               usage
}

// segment is how long the clients run between two host calibrations:
// at a segment's end the clients finish their jobs, the kernel runs on
// an idle process, and the segment's jobs are scaled by the mean of the
// calibrations on either side of it.
const segment = 2500 * time.Millisecond

// drive runs every client closed-loop for d, in segments.
func (h *svcHandle) drive(clients []*client, d time.Duration, rec *recorder) *svcPhase {
	ph := &svcPhase{}
	ph.use.begin()
	before := hostScale(7)
	for ph.elapsed < d {
		n := len(ph.jobs)
		el := h.run(clients, min(segment, d-ph.elapsed), rec, ph)
		after := hostScale(7)
		scale := (before + after) / 2
		for i := n; i < len(ph.jobs); i++ {
			ph.jobs[i].scale = scale
		}
		ph.elapsed += el
		ph.scaled += time.Duration(float64(el) * scale)
		before = after
	}
	ph.use.end()
	return ph
}

// run is one segment: each client starts a new job only while the
// segment is open, so it ends when the last job started inside it
// finishes.
func (h *svcHandle) run(clients []*client, d time.Duration, rec *recorder, ph *svcPhase) time.Duration {
	start := time.Now()
	end := start.Add(d)
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var jobs []jobRecord
			var errs []error
			for time.Now().Before(end) {
				jr, err := c.runJob(c.next(), rec)
				if err != nil {
					errs = append(errs, err)
				} else {
					jobs = append(jobs, jr)
				}
				ph.use.sample()
				if err := c.scrape(ph); err != nil {
					errs = append(errs, err)
				}
			}
			ph.mu.Lock()
			ph.jobs = append(ph.jobs, jobs...)
			ph.errs = append(ph.errs, errs...)
			ph.mu.Unlock()
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// svcMetrics turns a phase into the end-to-end metrics (untraced,
// host-scaled, with the raw figures beside them for the report) or the
// per-layer ones (traced, raw). tailQ is the workload's tail
// percentile.
func svcMetrics(m map[string]float64, ph *svcPhase, tailQ float64, e2e bool) {
	n := int64(len(ph.jobs))
	var lat, scaled, submit, polls, queue, run, overhead, full []float64
	var evals, moves, bytesMoved, pollCount int64
	var runTime time.Duration
	for _, j := range ph.jobs {
		lat = append(lat, ms(j.latency))
		scaled = append(scaled, ms(j.latency)*j.scale)
		runTime += j.run
		submit = append(submit, ms(j.submit))
		polls = append(polls, msOf(j.polls)...)
		queue = append(queue, ms(j.queue))
		run = append(run, ms(j.run))
		overhead = append(overhead, ms(j.latency-j.run))
		full = append(full, float64(j.fullEval)/float64(time.Microsecond))
		evals += j.evals
		moves += j.moves
		bytesMoved += j.bytes
		pollCount += int64(len(j.polls))
	}
	if e2e {
		m["jobs_per_s"] = float64(n) / ph.scaled.Seconds()
		m["job_p50_ms"] = quantile(scaled, 0.5)
		m["job_tail_ms"] = quantile(scaled, tailQ)
		m["raw.jobs_per_s"] = float64(n) / ph.elapsed.Seconds()
		m["raw.job_p50_ms"] = quantile(lat, 0.5)
		m["raw.job_tail_ms"] = quantile(lat, tailQ)
		m["host.scale"] = ph.scaled.Seconds() / ph.elapsed.Seconds()
		ph.use.metrics(m, n, true)
		return
	}
	m["solver.evals_per_s"] = ratio(float64(evals), runTime.Seconds())
	m["service.http.submit_ms.p50"] = quantile(submit, 0.5)
	m["service.http.submit_ms.tail"] = quantile(submit, tailQ)
	m["service.http.poll_ms.p50"] = quantile(polls, 0.5)
	m["service.http.polls_per_job"] = ratio(float64(pollCount), float64(n))
	m["service.http.body_kb_per_job"] = ratio(float64(bytesMoved)/1024, float64(n))
	m["service.queue_wait_ms.p50"] = quantile(queue, 0.5)
	m["service.queue_wait_ms.tail"] = quantile(queue, tailQ)
	m["service.run_ms.p50"] = quantile(run, 0.5)
	m["service.run_ms.tail"] = quantile(run, tailQ)
	m["service.overhead_ms.p50"] = quantile(overhead, 0.5)
	m["service.stats_read_ms.p50"] = quantile(msOf(ph.statsRT), 0.5)
	m["service.stats_lag_jobs.max"] = float64(ph.lagMax)
	m["obs.metrics_scrape_ms.p50"] = quantile(msOf(ph.scrapeRT), 0.5)
	m["operators.ls_moves_per_eval"] = ratio(float64(moves), float64(evals))
	m["schedule.evals_per_op"] = ratio(float64(evals), float64(n))
	m["schedule.full_eval_us"] = quantile(full, 0.5)
	ph.use.metrics(m, n, false)
}
