package main

// service.go is the service phase: a difftraced engine (service.New)
// served over loopback HTTP, driven by a closed loop of clients. Each
// client waits for its report before it submits again, as CI jobs and
// scripts do. A client's rounds are one first-seen request (a cold job:
// ingest, pipeline, store writes) followed by hitsPerRound repeats of
// requests it has already seen (cache hits: hash, store read, JSON).

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"time"

	"difftrace/internal/cluster"
	"difftrace/internal/obs"
	"difftrace/internal/obs/telemetry"
	"difftrace/internal/service"
)

const (
	// hitsPerRound makes one request in four a first sight.
	hitsPerRound = 3
	// flightSize keeps every job of a run in the flight recorder.
	flightSize = 1 << 13
	// reportTop is how many suspects per level a service report lists.
	reportTop = 6
)

// server is a running difftraced engine and its HTTP listener.
type server struct {
	svc    *service.Service
	obs    *obs.Run // the service's metrics registry (traced runs only)
	http   *http.Server
	url    string
	served chan struct{}
	cancel context.CancelFunc
}

// boot starts a service on a fresh store and waits until it answers
// /healthz.
func boot(ctx context.Context, storeDir string, traced bool) (*server, error) {
	ctx, cancel := context.WithCancel(ctx)
	s := &server{cancel: cancel, served: make(chan struct{})}
	if traced {
		s.obs = obs.NewRun("difftraced")
	}
	svc, _, err := service.New(ctx, service.Config{StoreDir: storeDir, FlightSize: flightSize, Obs: s.obs})
	if err != nil {
		cancel()
		return nil, err
	}
	s.svc = svc
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Stop(ctx) //nolint:errcheck // already failing
		cancel()
		return nil, err
	}
	s.url = "http://" + ln.Addr().String()
	s.http = &http.Server{Handler: svc.Handler()}
	go func() {
		defer close(s.served)
		s.http.Serve(ln) //nolint:errcheck // ends with ErrServerClosed at stop
	}()
	resp, err := http.Get(s.url + "/healthz")
	if err == nil {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz answered %s", resp.Status)
		}
	}
	if err != nil {
		s.stop()
		return nil, fmt.Errorf("service readiness: %w", err)
	}
	return s, nil
}

// stop shuts the listener and the service down and waits for both.
func (s *server) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.http.Shutdown(ctx) //nolint:errcheck // a timed-out shutdown still closes the listener
	<-s.served
	s.svc.Stop(ctx) //nolint:errcheck // nothing is queued once the clients have stopped
	s.cancel()
}

// family is one group of requests of about equal cost: one input pair in
// one format under one filter spec, in every combination of its attribute
// configurations, the linkage methods and the find_divergence flag.
type family struct {
	files *pairFiles
	plot  bool // submit the PLOT1 files, with "streaming": true
	spec  string
	attrs []string
}

// familiesOf makes one family per filter spec of the pair.
func familiesOf(pf *pairFiles, plot bool, attrs []string) []*family {
	var out []*family
	for _, spec := range pf.specs {
		out = append(out, &family{files: pf, plot: plot, spec: spec, attrs: attrs})
	}
	return out
}

// request is one distinct submission.
type request struct {
	body service.DiffRequest
	ref  refKey
}

func (f *family) String() string {
	format := "text"
	if f.plot {
		format = "PLOT1"
	}
	return fmt.Sprintf("%s %s %s", f.files.name, format, f.spec)
}

func (f *family) requests() []*request {
	paths := f.files.text
	if f.plot {
		paths = f.files.plot
	}
	var out []*request
	for _, a := range f.attrs {
		for _, m := range cluster.AllMethods() {
			for _, fd := range []bool{false, true} {
				out = append(out, &request{
					body: service.DiffRequest{
						Normal: paths[0], Faulty: paths[1],
						Filter: f.spec, Attr: a, Linkage: m.String(),
						Streaming: f.plot, FindDivergence: fd,
					},
					ref: refKey{f.files.name, f.spec, a},
				})
			}
		}
	}
	return out
}

// jobView is the part of the service's job JSON the clients read.
type jobView struct {
	ID       string `json:"id"`
	State    string `json:"state"`
	Attempts int    `json:"attempts"`
	Cached   bool   `json:"cached"`
	Error    string `json:"error"`
	Report   string `json:"report"`
}

// submission is one request a client sent and what came of it.
type submission struct {
	req      *request
	family   int
	cold     bool
	latency  time.Duration // submit to done
	post     time.Duration // the POST alone
	view     jobView
	err      error // the job did not end done, or the HTTP exchange failed
	mismatch error // a hit's report differs from its cold job's
}

// servicePhaseResult is what the closed loop measured.
type servicePhaseResult struct {
	subs []*submission
	// cold and hit are the geometric means over the request families of
	// each family's median submit-to-done time. Families differ in cost
	// by more than tenfold, so the median of all jobs would sit at
	// whichever gap between two families' costs the balanced mix puts in
	// the middle, and jump between them from run to run.
	cold, hit float64
	completed int
	elapsed   time.Duration
}

// servicePhase runs the closed loop for d, in whole cycles of rounds. Each
// client walks the families round-robin and draws its first-seen requests from
// its own share of each family's seeded order, so no two clients ever
// submit the same request and every repeat is a cache hit. A round's hits
// repeat requests of the round's family, so hits and first sights have
// the same mix of families.
func (b *bench) servicePhase(d time.Duration) (*servicePhaseResult, error) {
	fams := b.w.families(b)
	share := make([][][]*request, b.w.clients) // client → family → requests
	for c := range share {
		share[c] = make([][]*request, len(fams))
	}
	for fi, f := range fams {
		reqs := f.requests()
		rand.New(rand.NewSource(b.opts.seed*7919+int64(fi))).Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
		for i, r := range reqs {
			share[i%b.w.clients][fi] = append(share[i%b.w.clients][fi], r)
		}
	}

	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: b.w.clients}}
	defer hc.CloseIdleConnections()
	results := make([][]*submission, b.w.clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < b.w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(b.opts.seed*104729 + int64(c)))
			seen := make([][]*submission, len(fams))
			next := make([]int, len(fams))
			// Every client walks all families in whole cycles, the
			// clients spaced evenly around the cycle, so each family
			// gets the same number of rounds from every client.
			for r := 0; r%len(fams) != 0 || r == 0 || time.Since(start) < d; r++ {
				fi := (r + c*len(fams)/b.w.clients) % len(fams)
				if next[fi] == len(share[c][fi]) {
					return // this client has sent every request of the family
				}
				req := share[c][fi][next[fi]]
				next[fi]++
				cold := b.submit(hc, req, true)
				cold.family = fi
				results[c] = append(results[c], cold)
				if cold.err != nil {
					continue
				}
				seen[fi] = append(seen[fi], cold)
				for h := 0; h < hitsPerRound; h++ {
					orig := seen[fi][rng.Intn(len(seen[fi]))]
					hit := b.submit(hc, orig.req, false)
					hit.family = fi
					if hit.err == nil {
						hit.mismatch = checkSameBytes("cache hit report", []byte(hit.view.Report), "its cold job's report", []byte(orig.view.Report))
						hit.view.Report = ""
					}
					results[c] = append(results[c], hit)
				}
			}
		}(c)
	}
	wg.Wait()
	res := &servicePhaseResult{elapsed: time.Since(start)}
	for _, subs := range results {
		res.subs = append(res.subs, subs...)
	}
	cold := make([][]float64, len(fams))
	hit := make([][]float64, len(fams))
	for _, s := range res.subs {
		b.attempted++
		if s.err != nil {
			b.failed++
			continue
		}
		res.completed++
		if s.cold {
			cold[s.family] = append(cold[s.family], s.latency.Seconds())
		} else {
			hit[s.family] = append(hit[s.family], s.latency.Seconds())
		}
	}
	var coldMedians, hitMedians []float64
	for fi, f := range fams {
		if len(cold[fi]) == 0 || len(hit[fi]) == 0 {
			return nil, fmt.Errorf("service phase completed no cold job or no cache hit of family %s", f)
		}
		coldMedians = append(coldMedians, median(cold[fi]))
		hitMedians = append(hitMedians, median(hit[fi]))
		logf("  %-30s cold %3d × median %.4fs, hits %3d × median %.4fs", f, len(cold[fi]), median(cold[fi]), len(hit[fi]), median(hit[fi]))
	}
	res.cold, res.hit = geomean(coldMedians), geomean(hitMedians)
	return res, nil
}

// submit sends one request and, for a first sight, polls the job until it
// settles. A first sight must be admitted (202, not cached); a repeat
// must be answered from the store at once (200, cached, done).
func (b *bench) submit(hc *http.Client, req *request, cold bool) *submission {
	s := &submission{req: req, cold: cold}
	body, err := json.Marshal(req.body)
	if err != nil {
		s.err = err
		return s
	}
	start := time.Now()
	status, err := b.exchange(hc, http.MethodPost, "/v1/diff", body, &s.view)
	s.post = time.Since(start)
	switch {
	case err != nil:
		s.err = err
		return s
	case cold && (status != http.StatusAccepted || s.view.Cached):
		s.err = fmt.Errorf("first sight of %s answered %d, cached=%v", describe(req), status, s.view.Cached)
		return s
	case !cold && (status != http.StatusOK || !s.view.Cached):
		s.err = fmt.Errorf("repeat of %s answered %d, cached=%v", describe(req), status, s.view.Cached)
		return s
	}
	for s.view.State == string(service.StateQueued) || s.view.State == string(service.StateRunning) {
		// Poll at a fiftieth of the time waited so far: the measured
		// latency overshoots by at most 2%, and long jobs are not
		// flooded with polls.
		wait := time.Since(start) / 50
		wait = max(200*time.Microsecond, min(wait, 10*time.Millisecond))
		time.Sleep(wait)
		if _, err := b.exchange(hc, http.MethodGet, "/v1/jobs/"+s.view.ID, nil, &s.view); err != nil {
			s.err = err
			return s
		}
	}
	s.latency = time.Since(start)
	if err := checkJobDone(s.view); err != nil {
		s.err = fmt.Errorf("%s: %w", describe(req), err)
	}
	return s
}

// checkJobDone: the job ended done.
func checkJobDone(v jobView) error {
	if v.State != string(service.StateDone) {
		return fmt.Errorf("job %s ended %s: %s", v.ID, v.State, v.Error)
	}
	return nil
}

func (b *bench) exchange(hc *http.Client, method, path string, body []byte, into any) (int, error) {
	hreq, err := http.NewRequestWithContext(b.ctx, method, b.srv.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := hc.Do(hreq)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		return resp.StatusCode, fmt.Errorf("%s %s: %w", method, path, err)
	}
	return resp.StatusCode, nil
}

func describe(r *request) string {
	return fmt.Sprintf("%s/%s/%s/%s/streaming=%v/fd=%v", r.ref.pair, r.body.Filter, r.body.Attr, r.body.Linkage, r.body.Streaming, r.body.FindDivergence)
}

// checkService checks the service phase: every job ended done, every hit
// returned its cold job's bytes, every cold report ranks the suspects of
// the in-process run with the same options, and (traced runs, where the
// service keeps metrics) the cache-hit counter shows single-flight
// working: one admission per distinct request, every repeat a hit.
func (b *bench) checkService(sp *servicePhaseResult) {
	for _, s := range sp.subs {
		if s.err != nil {
			b.fail("service: %v", s.err)
			continue
		}
		if s.mismatch != nil {
			b.fail("service: %s: %v", describe(s.req), s.mismatch)
		}
		if !s.cold {
			continue
		}
		ref, err := b.reference(s.req.ref)
		if err != nil {
			b.fail("service: reference for %s: %v", describe(s.req), err)
			continue
		}
		if err := checkReportSuspects(s.view.Report, ref, reportTop); err != nil {
			b.fail("service: %s: %v", describe(s.req), err)
		}
	}
	if b.srv.obs != nil {
		distinct := 0
		for _, s := range sp.subs {
			if s.cold {
				distinct++
			}
		}
		c := func(name string) int64 { return b.srv.obs.Counter(name).Value() }
		if err := checkCacheCounters(c("service.cache_hits"), c("service.admitted"), int64(len(sp.subs)), int64(distinct)); err != nil {
			b.fail("service: %v", err)
		}
	}
}

// checkCacheCounters: cache hits = submissions − distinct requests, and
// the service admitted each distinct request exactly once.
func checkCacheCounters(hits, admitted, submissions, distinct int64) error {
	if hits != submissions-distinct {
		return fmt.Errorf("service.cache_hits = %d, want %d submissions − %d distinct = %d", hits, submissions, distinct, submissions-distinct)
	}
	if admitted != distinct {
		return fmt.Errorf("service.admitted = %d, want one per distinct request (%d)", admitted, distinct)
	}
	return nil
}

// serviceLayers are the service and store layer metrics of a traced run.
func (b *bench) serviceLayers(sp *servicePhaseResult) map[string]metric {
	var posts []float64
	retries := 0
	for _, s := range sp.subs {
		posts = append(posts, s.post.Seconds())
		if s.cold && s.view.Attempts > 1 {
			retries += s.view.Attempts - 1
		}
	}
	var flight struct {
		Records []telemetry.JobRecord `json:"records"`
	}
	hc := &http.Client{}
	defer hc.CloseIdleConnections()
	if _, err := b.exchange(hc, http.MethodGet, "/debug/flight", nil, &flight); err != nil {
		b.fail("service: GET /debug/flight: %v", err)
	}
	// Queue waits are whole milliseconds and mostly zero (the closed loop
	// never has more clients than the service runs jobs at once), so their
	// mean says more than their median.
	var queued, ran []float64
	for _, rec := range flight.Records {
		if !rec.Cached {
			queued = append(queued, float64(rec.QueuedMs)/1e3)
			ran = append(ran, float64(rec.RunMs)/1e3)
		}
	}
	hits := b.srv.obs.Counter("service.cache_hits").Value()
	return map[string]metric{
		"service.submit_s":     {median(posts), "s"},
		"service.queue_wait_s": {mean(queued), "s"},
		"service.run_s":        {median(ran), "s"},
		"service.hit_ratio":    {float64(hits) / float64(len(sp.subs)), "ratio"},
		"service.retries":      {float64(retries), "count"},
	}
}
