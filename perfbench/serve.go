package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"hcapp"
)

// The serve workload: an open loop of short HCAPP jobs into a standalone
// hcapp-serve with two simulation slots. The rate is 30 jobs/s, about
// 30% of the roughly 100 jobs/s measured as capacity on a 2-core host; at
// 50 jobs/s the tail latency spread from run to run far past any bound.
//
// The side traffic follows stated client models, not measured user
// traffic (see README.md): each job is polled every 0.1 s from its submit
// until it ends, as the repository's own job client in scripts/ci.sh
// does; /metrics is scraped every 15 s, the scrape_interval of
// Prometheus's example configuration; /v1/traces is read every 5 s,
// Grafana's default minimum dashboard refresh.
const (
	serveRate      = 30.0 // jobs per second
	serveJobDurMS  = 0.2  // simulated ms per job
	serveWorkers   = 2
	serveSetupRuns = 21
	serveSample    = 16 // served results re-run through the facade
	pollEvery      = 100 * time.Millisecond
	scrapeEvery    = 15 * time.Second
	tracesEvery    = 5 * time.Second
	scrapeSamples  = 21 // sequential /metrics scrapes timed after the drain
	sideTick       = 5 * time.Millisecond
	drainTimeout   = 30 * time.Second
)

// jobSpec is one generated job: due at Offset after the loop starts.
type jobSpec struct {
	Offset time.Duration
	Combo  string
	Seed   int64
}

// serveSchedule is the open loop's input: evenly spaced jobs at rate for
// d, cycling the Table 3 combos from a seed-chosen start, each with its
// own seed derived from the workload seed.
func serveSchedule(seed int64, d time.Duration, rate float64) []jobSpec {
	suite := hcapp.Suite()
	n := int(d.Seconds() * rate)
	gap := time.Duration(float64(time.Second) / rate)
	start := int(uint64(seed) % uint64(len(suite)))
	out := make([]jobSpec, n)
	for i := range out {
		out[i] = jobSpec{
			Offset: time.Duration(i) * gap,
			Combo:  suite[(start+i)%len(suite)].Name,
			Seed:   int64(splitmix64(uint64(seed)*0x9e3779b97f4a7c15+uint64(i)) >> 1),
		}
	}
	return out
}

// splitmix64 is a fixed, well-mixed 64-bit hash.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// jobRequest is the POST /v1/jobs body the generator sends.
type jobRequest struct {
	Combo string  `json:"combo"`
	DurMS float64 `json:"dur_ms"`
	Seed  int64   `json:"seed"`
}

// jobStatus is the part of GET /v1/jobs/{id} the benchmark reads.
type jobStatus struct {
	ID        string          `json:"id"`
	State     string          `json:"state"`
	Error     string          `json:"error"`
	Result    json.RawMessage `json:"result"`
	CreatedAt time.Time       `json:"created_at"`
	StartedAt *time.Time      `json:"started_at"`
	EndedAt   *time.Time      `json:"ended_at"`
}

func (s *jobStatus) terminal() bool { return s.State == "done" || s.State == "failed" }

// jobResult is the served result the benchmark checks.
type jobResult struct {
	MaxWindowPower float64          `json:"max_window_power_watts"`
	MaxOverLimit   float64          `json:"max_over_limit"`
	Violated       bool             `json:"violated"`
	AvgPower       float64          `json:"avg_power_watts"`
	PPE            float64          `json:"ppe"`
	CompletionNS   map[string]int64 `json:"completion_ns"`
	Completed      bool             `json:"completed"`
	DurationNS     int64            `json:"duration_ns"`
	ControlCycles  int64            `json:"control_cycles"`
	EnergyJoules   float64          `json:"energy_joules"`
}

// canonicalResult is the digest input for a served result: the fields
// above, re-encoded, so fields a later release adds do not move it.
func canonicalResult(raw json.RawMessage) (jobResult, string, error) {
	var jr jobResult
	if err := json.Unmarshal(raw, &jr); err != nil {
		return jr, "", fmt.Errorf("decode job result: %w", err)
	}
	data, err := json.Marshal(jr)
	if err != nil {
		return jr, "", err
	}
	return jr, sha(string(data)), nil
}

// sameAsFacade compares a served result with the facade's run of the
// same spec (energy aside: the facade run carries no ledger).
func sameAsFacade(jr jobResult, r hcapp.RunResult) bool {
	if jr.MaxWindowPower != r.MaxWindowPower || jr.MaxOverLimit != r.MaxOverLimit ||
		jr.Violated != r.Violated || jr.AvgPower != r.AvgPower || jr.PPE != r.PPE ||
		jr.Completed != r.Completed || jr.DurationNS != int64(r.Duration) ||
		jr.ControlCycles != r.ControlCycles || len(jr.CompletionNS) != len(r.Completion) {
		return false
	}
	for k, v := range r.Completion {
		if jr.CompletionNS[k] != int64(v) {
			return false
		}
	}
	return true
}

// facadeJob is the facade run of a served job's spec: what hcapp-serve's
// standalone job path computes.
func facadeJob(combo string, seed int64) (hcapp.RunSpec, *hcapp.Evaluator, error) {
	c, err := hcapp.ComboByName(combo)
	if err != nil {
		return hcapp.RunSpec{}, nil, err
	}
	ev := hcapp.NewEvaluator().WithTargetDur(hcapp.Time(serveJobDurMS * float64(hcapp.Millisecond)))
	ev.Cfg.Seed = seed
	return hcapp.RunSpec{Combo: c, Scheme: hcapp.HCAPPScheme(), Limit: hcapp.PackagePinLimit()}, ev, nil
}

// jobRec is one job's life as the generator saw it.
type jobRec struct {
	spec  jobSpec
	due   time.Time
	sent  time.Time
	acked time.Time
	// nextPoll is when the side-traffic loop polls the job next.
	nextPoll time.Time
	code     int
	err      string
	id       string
	final    *jobStatus
	polls    []time.Duration
	// pollStarts are when each poll was sent (traced runs draw them).
	pollStarts []time.Time
}

// server is a launched hcapp-serve.
type server struct {
	c    *child
	base string
}

// launchServer starts hcapp-serve with args on port and waits for
// ready(); it returns the time from launch to ready.
func (e *env) launchServer(name string, port int, ready func(cl *http.Client, base string) bool, args ...string) (*server, time.Duration, error) {
	base := fmt.Sprintf("http://127.0.0.1:%d", port)
	t0 := time.Now()
	c, err := e.procs.start(name, false, e.serve(), append([]string{"-addr", fmt.Sprintf("127.0.0.1:%d", port)}, args...)...)
	if err != nil {
		return nil, 0, err
	}
	cl := newClient()
	defer cl.CloseIdleConnections()
	if err := waitFor([]*child{c}, 20*time.Second, name+" ready", func() bool { return ready(cl, base) }); err != nil {
		c.kill()
		return nil, 0, err
	}
	return &server{c: c, base: base}, time.Since(t0), nil
}

// answers returns a readiness test: GET path answers 200.
func answers(path string) func(cl *http.Client, base string) bool {
	return func(cl *http.Client, base string) bool {
		code, _, _, err := get(cl, base+path)
		return err == nil && code == http.StatusOK
	}
}

// verifyIdentity confirms a listener is the process just launched from
// the binary just built: the process is alive and /metrics reports the
// version that binary prints for -version.
func (e *env) verifyIdentity(cl *http.Client, s *server) error {
	want, err := binaryVersion(e.serve())
	if err != nil {
		return err
	}
	got, err := servedVersion(cl, s.base)
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("%s at %s reports version %q, built binary is %q: stale listener?", s.c.name, s.base, got, want)
	}
	if !s.c.alive() {
		return fmt.Errorf("%s exited: %s", s.c.name, s.c.stderr.String())
	}
	return nil
}

// submit POSTs one job and fills in the record.
func submit(cl *http.Client, base string, j *jobRec) {
	body, _ := json.Marshal(jobRequest{Combo: j.spec.Combo, DurMS: serveJobDurMS, Seed: j.spec.Seed}) // plain struct: cannot fail
	j.sent = time.Now()
	resp, err := cl.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		j.acked, j.err = time.Now(), err.Error()
		return
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	j.acked, j.code = time.Now(), resp.StatusCode
	if err != nil {
		j.err = err.Error()
		return
	}
	if resp.StatusCode != http.StatusAccepted {
		j.err = fmt.Sprintf("POST /v1/jobs: %d %s", resp.StatusCode, bytes.TrimSpace(data))
		return
	}
	var st jobStatus
	if err := json.Unmarshal(data, &st); err != nil || st.ID == "" {
		j.err = fmt.Sprintf("POST /v1/jobs: bad body %q", data)
		return
	}
	j.id = st.ID
}

// poll GETs a job's status once.
func poll(cl *http.Client, base string, j *jobRec) error {
	t0 := time.Now()
	code, body, lat, err := get(cl, base+"/v1/jobs/"+j.id)
	j.polls = append(j.polls, lat)
	j.pollStarts = append(j.pollStarts, t0)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("GET /v1/jobs/%s: %d %s", j.id, code, bytes.TrimSpace(body))
	}
	var st jobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		return err
	}
	if st.terminal() {
		j.final = &st
	}
	return nil
}

// runJobsSync submits jobs one at a time and waits for each (the golden
// jobs, before the open loop).
func runJobsSync(cl *http.Client, base string, specs []jobSpec) ([]*jobRec, error) {
	var out []*jobRec
	for _, sp := range specs {
		j := &jobRec{spec: sp}
		submit(cl, base, j)
		if j.err != "" {
			return nil, fmt.Errorf("%s", j.err)
		}
		deadline := time.Now().Add(drainTimeout)
		for j.final == nil && time.Now().Before(deadline) {
			if err := poll(cl, base, j); err != nil {
				return nil, err
			}
			time.Sleep(pollEvery)
		}
		if j.final == nil {
			return nil, fmt.Errorf("golden job %s did not finish", sp.Combo)
		}
		out = append(out, j)
	}
	return out, nil
}

// servePass launches hcapp-serve, checks the golden jobs, then runs the
// open loop for d with status polls, /metrics scrapes and /v1/traces
// reads beside it, on the cadences above.
func servePass(e *env, d time.Duration, tr *tracer) *report {
	r := newReport()
	var srv *server
	var setups []float64
	for i := 0; i < serveSetupRuns; i++ {
		ports, err := freePorts(1)
		if err != nil {
			r.fail("%v", err)
			return r
		}
		s, took, err := e.launchServer("hcapp-serve", ports[0], answers("/readyz"), "-workers", fmt.Sprint(serveWorkers))
		if err != nil {
			r.fail("launch hcapp-serve: %v", err)
			return r
		}
		setups = append(setups, took.Seconds())
		if i < serveSetupRuns-1 {
			s.c.kill()
			continue
		}
		srv = s
	}
	defer srv.c.kill()
	r.set("setup_s", median(setups), fmt.Sprintf("median of %d launches to /readyz 200", serveSetupRuns))

	// Two connections: one submits, the other polls, scrapes and reads
	// traces, so a slow poll never delays a submit.
	subCl, pollCl := newClient(), newClient()
	defer subCl.CloseIdleConnections()
	defer pollCl.CloseIdleConnections()
	if err := e.verifyIdentity(pollCl, srv); err != nil {
		r.fail("%v", err)
		return r
	}

	if !e.goldenDone["serve"] {
		var specs []jobSpec
		for _, c := range hcapp.Suite() {
			specs = append(specs, jobSpec{Combo: c.Name, Seed: goldenSeed})
		}
		jobs, err := runJobsSync(subCl, srv.base, specs)
		if err != nil {
			r.fail("golden jobs: %v", err)
			return r
		}
		for _, j := range jobs {
			_, digest, err := canonicalResult(j.final.Result)
			switch {
			case err != nil:
				r.fail("golden job %s: %v", j.spec.Combo, err)
			case digest != goldenJobs[j.spec.Combo]:
				r.fail("golden job %s: result sha256 %s, golden %s", j.spec.Combo, digest, goldenJobs[j.spec.Combo])
			default:
				r.ok()
			}
		}
		e.goldenDone["serve"] = true
	}

	cpu0, err := srv.c.cpuNow()
	if err != nil {
		r.fail("%v", err)
		return r
	}
	sched := serveSchedule(e.seed, d, serveRate)
	jobs := make([]*jobRec, len(sched))
	t0 := time.Now().Add(20 * time.Millisecond)
	accepted := make(chan *jobRec, len(sched)) // sized to the schedule: the submitter never blocks on it
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(accepted)
		for i, sp := range sched {
			j := &jobRec{spec: sp, due: t0.Add(sp.Offset)}
			jobs[i] = j
			time.Sleep(time.Until(j.due))
			submit(subCl, srv.base, j)
			if j.id != "" {
				accepted <- j
			}
		}
	}()
	var sideOK int
	var sideErrs []string
	side := func(path, span string) {
		t := time.Now()
		code, _, lat, err := get(pollCl, srv.base+path)
		if err != nil || code != http.StatusOK {
			sideErrs = append(sideErrs, fmt.Sprintf("GET %s: %d %v", path, code, err))
		} else {
			sideOK++
		}
		tr.add(0, span, span, t, t.Add(lat))
	}
	go func() {
		defer wg.Done()
		var outstanding []*jobRec
		open := true
		deadline := t0.Add(d + drainTimeout)
		nextScrape, nextTraces := t0, t0
		for (open || len(outstanding) > 0) && time.Now().Before(deadline) {
			for drained := false; open && !drained; {
				select {
				case j, ok := <-accepted:
					if !ok {
						open = false
					} else {
						j.nextPoll = j.acked.Add(pollEvery)
						outstanding = append(outstanding, j)
					}
				default:
					drained = true
				}
			}
			kept := outstanding[:0]
			for _, j := range outstanding {
				if time.Now().Before(j.nextPoll) {
					kept = append(kept, j)
					continue
				}
				j.nextPoll = j.nextPoll.Add(pollEvery)
				if err := poll(pollCl, srv.base, j); err != nil {
					j.err = err.Error()
					continue
				}
				if j.final == nil {
					kept = append(kept, j)
				}
			}
			outstanding = kept
			if !time.Now().Before(nextScrape) {
				nextScrape = nextScrape.Add(scrapeEvery)
				side("/metrics", "server.scrape")
			}
			if !time.Now().Before(nextTraces) {
				nextTraces = nextTraces.Add(tracesEvery)
				side("/v1/traces?limit=5", "server.traces")
			}
			time.Sleep(sideTick)
		}
	}()
	wg.Wait()
	cpu1, err1 := srv.c.cpuNow()
	rss, err2 := srv.c.peakRSSNow()
	if err := firstErr(err1, err2); err != nil {
		r.fail("%v", err)
		return r
	}
	// /metrics latency is timed on the drained server, which still holds
	// the run's jobs: a 15 s cadence gives too few scrapes in the loop
	// to take a median of.
	var scrapes []time.Duration
	for i := 0; i < scrapeSamples; i++ {
		code, _, lat, err := get(pollCl, srv.base+"/metrics")
		if err != nil || code != http.StatusOK {
			sideErrs = append(sideErrs, fmt.Sprintf("GET /metrics after the drain: %d %v", code, err))
			continue
		}
		sideOK++
		scrapes = append(scrapes, lat)
	}
	for _, msg := range sideErrs {
		r.fail("%s", msg)
	}
	for i := 0; i < sideOK; i++ {
		r.ok()
	}

	// Outcomes, checks and timings, outside the timed region.
	var lat, lags, submits, qwait, runs, polls []float64
	var simMS float64
	var lastEnd time.Time
	refused := 0
	for _, j := range jobs {
		for _, p := range j.polls {
			polls = append(polls, p.Seconds())
		}
		lags = append(lags, j.sent.Sub(j.due).Seconds())
		submits = append(submits, j.acked.Sub(j.sent).Seconds())
		switch {
		case j.code == http.StatusTooManyRequests:
			refused++
			r.fail("job %s/%d refused: %s", j.spec.Combo, j.spec.Seed, j.err)
			continue
		case j.err != "":
			r.fail("job %s/%d: %s", j.spec.Combo, j.spec.Seed, j.err)
			continue
		case j.final == nil:
			r.fail("job %s did not finish within %s of the loop's end", j.id, drainTimeout)
			continue
		case j.final.State != "done" || j.final.StartedAt == nil || j.final.EndedAt == nil:
			r.fail("job %s %s: %s", j.id, j.final.State, j.final.Error)
			continue
		}
		jr, _, err := canonicalResult(j.final.Result)
		if err != nil {
			r.fail("job %s: %v", j.id, err)
			continue
		}
		r.ok()
		st, en := *j.final.StartedAt, *j.final.EndedAt
		lat = append(lat, en.Sub(j.due).Seconds())
		qwait = append(qwait, st.Sub(j.final.CreatedAt).Seconds())
		runs = append(runs, en.Sub(st).Seconds())
		simMS += float64(jr.DurationNS) / 1e6
		if en.After(lastEnd) {
			lastEnd = en
		}
		if tr != nil {
			root := tr.add(0, j.id, "server.job", j.due, en)
			tr.add(root, j.id, "gen.lag", j.due, j.sent)
			tr.add(root, j.id, "server.submit", j.sent, j.acked)
			tr.add(root, j.id, "server.queue", j.final.CreatedAt, st)
			tr.add(root, j.id, "server.run", st, en)
			for k, p := range j.polls {
				tr.add(root, j.id, "server.poll", j.pollStarts[k], j.pollStarts[k].Add(p))
			}
		}
	}
	if len(lat) == 0 {
		return r
	}
	done := len(lat)
	r.set("sim_ms_per_s", simMS/lastEnd.Sub(t0).Seconds(), fmt.Sprintf("%d jobs at %.0f/s", done, serveRate))
	r.set("latency_p50_s", median(lat), "due time to ended_at")
	r.setTail("latency_tail_s", windowTail(lat))
	r.set("gen_lag_p95_s", percentile(lags, 95), fmt.Sprintf("send time - due time, n=%d", len(lags)))
	r.set("cpu_s", (cpu1-cpu0)/float64(done), "hcapp-serve user+sys CPU per job")
	r.set("peak_rss_mb", rss, "hcapp-serve VmHWM")
	r.set("server.submit_p50_s", median(submits), "POST /v1/jobs latency")
	r.set("server.queue_wait_p50_s", median(qwait), "started_at - created_at")
	r.setTail("server.queue_wait_tail_s", pickTail(qwait))
	r.set("server.run_p50_s", median(runs), "ended_at - started_at")
	r.setTail("server.run_tail_s", pickTail(runs))
	r.set("server.poll_p50_s", median(polls), fmt.Sprintf("GET /v1/jobs/{id}, n=%d", len(polls)))
	r.set("server.scrape_p50_s", median(durSecs(scrapes)), fmt.Sprintf("GET /metrics on the drained server, n=%d", len(scrapes)))
	r.set("server.refused_frac", float64(refused)/float64(len(jobs)), "429s / submits")

	// A seeded sample of served results must equal the facade's run of
	// the same spec; the facade runs also time the same work without the
	// server's observers.
	rng := rand.New(rand.NewSource(e.seed))
	var served, bare []float64
	for _, i := range rng.Perm(len(jobs))[:min(serveSample, len(jobs))] {
		j := jobs[i]
		if j.final == nil || j.final.State != "done" {
			continue
		}
		jr, _, _ := canonicalResult(j.final.Result) // decoded above already
		spec, ev, err := facadeJob(j.spec.Combo, j.spec.Seed)
		if err != nil {
			r.fail("%v", err)
			continue
		}
		res, err := ev.Run(spec)
		if err != nil {
			r.fail("facade run of job %s: %v", j.id, err)
			continue
		}
		if !sameAsFacade(jr, res) {
			r.fail("job %s (%s seed %d): served result differs from the facade run", j.id, j.spec.Combo, j.spec.Seed)
			continue
		}
		pt, err := facadeRun(nil, 0, "", j.spec.Seed, hcapp.Time(serveJobDurMS*float64(hcapp.Millisecond)), spec)
		if err != nil || !pt.matches(res) {
			r.fail("job %s: by-hand facade run differs from Evaluator.Run (%v)", j.id, err)
			continue
		}
		r.ok()
		served = append(served, j.final.EndedAt.Sub(*j.final.StartedAt).Seconds())
		bare = append(bare, (pt.Sizing + pt.Build + pt.Run + pt.Reduce).Seconds())
	}
	if len(bare) > 0 {
		r.set("server.observer_overhead_frac", median(served)/median(bare)-1,
			fmt.Sprintf("served run p50 %.6g s / facade SizeWork+Build+Run p50 %.6g s - 1, same %d jobs", median(served), median(bare), len(bare)))
	}
	return r
}

func durSecs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
