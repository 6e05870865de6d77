package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pipesyn/internal/core"
	"pipesyn/internal/service"
	"pipesyn/internal/sim"
	"pipesyn/internal/synth"
)

// daemonClients is the number of closed-loop HTTP clients (and at most
// the number of connections they hold).
const daemonClients = 2

// bootsPerPass is how many extra cold boots a daemon run times before
// each pass, next to the pass's own boot. A boot fsyncs its compacted
// journal, and the host's disk latency changes from second to second,
// so the boots are spread over the run instead of taken in one burst.
const bootsPerPass = 10

// runDaemon drives daemon_mixed: passes of the seeded request mix, each
// against a freshly booted in-process daemon with an empty cache and an
// empty state dir, until the run time is used.
func runDaemon(r *runner) error {
	first := map[string]*service.StudyJSON{}
	tr := r.tr
	var untraced time.Duration
	start := time.Now()
	for pass := 0; ; pass++ {
		for i := 0; i < bootsPerPass; i++ {
			t0 := time.Now()
			_ = daemonMix(r.seed, pass)
			d, err := bootDaemon(r.workers)
			if err != nil {
				return err
			}
			r.add("setup_s", time.Since(t0).Seconds())
			if err := d.close(); err != nil {
				return err
			}
		}
		passStart := time.Now()
		mix := daemonMix(r.seed, pass)
		if tr.On() && pass < 2 {
			// A traced run plays its first mix twice, first untraced:
			// the two passes' walls give the tracing overhead.
			mix = daemonMix(r.seed, 0)
			if pass == 0 {
				r.tr = nil
			}
		}
		wall, err := r.daemonPass(pass, mix, first)
		r.tr = tr
		if err != nil {
			return err
		}
		switch {
		case tr.On() && pass == 0:
			untraced = wall
			continue
		case tr.On() && pass == 1:
			r.values["trace.overhead_frac"] = ratio(wall.Seconds(), untraced.Seconds()) - 1
		}
		if !r.another(start, passStart) {
			return nil
		}
	}
}

// daemon is one booted in-process adcsynd.
type daemon struct {
	dir     string
	cache   *synth.Cache
	journal *service.Journal
	man     *service.Manager
	srv     *http.Server
	served  chan error
	base    string
	client  *http.Client
}

// bootDaemon starts a daemon the way adcsynd does (synthesis cache with
// a disk tier, journal, recovery, executors) on a loopback port and
// waits until /readyz answers 200.
func bootDaemon(workers int) (*daemon, error) {
	dir, err := os.MkdirTemp("", "perfbench-daemon-")
	if err != nil {
		return nil, err
	}
	d := &daemon{dir: dir}
	if d.cache, err = synth.NewCache(0, filepath.Join(dir, "cache")); err != nil {
		d.close()
		return nil, err
	}
	if d.journal, err = service.OpenJournal(filepath.Join(dir, "state")); err != nil {
		d.close()
		return nil, err
	}
	d.man = service.NewManager(service.Config{Workers: workers, Executors: 1,
		Cache: d.cache, Journal: d.journal})
	if _, err := d.man.Recover(); err != nil {
		d.close()
		return nil, err
	}
	d.man.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.close()
		return nil, err
	}
	d.srv = &http.Server{Handler: service.NewServer(d.man)}
	d.served = make(chan error, 1)
	go func() { d.served <- d.srv.Serve(ln) }()
	d.base = "http://" + ln.Addr().String()
	d.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: daemonClients, MaxIdleConnsPerHost: daemonClients}}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := d.client.Get(d.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.close()
			return nil, fmt.Errorf("daemon not ready after 10s (last error %v)", err)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// close drains the daemon, stops the HTTP server, closes the journal and
// removes the state dir. It waits for every goroutine it started.
func (d *daemon) close() error {
	var errs []error
	if d.man != nil {
		d.man.Drain(5 * time.Second)
	}
	if d.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		errs = append(errs, d.srv.Shutdown(ctx))
		cancel()
		if err := <-d.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	if d.client != nil {
		d.client.CloseIdleConnections()
	}
	if d.journal != nil {
		errs = append(errs, d.journal.Close())
	}
	errs = append(errs, os.RemoveAll(d.dir))
	return errors.Join(errs...)
}

// outcome is what a client saw of one mix item.
type outcome struct {
	item     mixItem
	key      string
	id       string
	deduped  bool
	status   service.JobStatus
	postAt   time.Time
	feasible int // design points reported feasible (fresh studies)
	points   int
	err      error
}

// daemonPass boots a daemon, plays the mix through the clients, checks
// every result and shuts the daemon down. It returns the wall time of
// the clients' play.
func (r *runner) daemonPass(pass int, mix []mixItem, first map[string]*service.StudyJSON) (time.Duration, error) {
	t0 := time.Now()
	d, err := bootDaemon(r.workers)
	if err != nil {
		return 0, err
	}
	ready := time.Now()
	r.add("setup_s", ready.Sub(t0).Seconds())
	r.tr.AddAt(0, "service.boot", "service", fmt.Sprintf("pass%d", pass), t0, ready)

	ks0 := sim.ReadKernelStats()
	outs := make([]*outcome, len(mix))
	submitted := make([]chan struct{}, len(mix))
	for i := range submitted {
		submitted[i] = make(chan struct{})
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	alloc0 := heapAllocs()
	c0 := time.Now()
	for c := 0; c < daemonClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(mix) {
					return
				}
				if ref := mix[i].Ref; ref >= 0 {
					<-submitted[ref]
				}
				outs[i] = r.play(d, mix[i], func() { close(submitted[i]) })
			}
		}()
	}
	wg.Wait()
	wall := time.Since(c0)
	allocated := heapAllocs() - alloc0
	ks1 := sim.ReadKernelStats()

	r.mu.Lock()
	r.measured += wall
	r.allocated += allocated
	r.jobs += len(mix)
	r.mu.Unlock()
	r.checkPass(pass, outs, first)

	if r.tr.On() {
		evals := 0
		for _, o := range outs {
			if o.err == nil && !o.deduped && o.status.Result != nil {
				evals += o.status.Result.TotalEvals
			}
		}
		r.add("la.factorizations_per_eval", ratio(float64(ks1.Factorizations-ks0.Factorizations), float64(evals)))
		r.add("sim.reused_solves_per_eval", ratio(float64(ks1.ReusedSolves-ks0.ReusedSolves), float64(evals)))
		r.add("sim.reuse_fallbacks", float64(ks1.ReuseFallbacks-ks0.ReuseFallbacks))
		r.add("la.ordered_fallbacks", float64(ks1.OrderedFallbacks-ks0.OrderedFallbacks))
		if err := r.scrapeEvalLatency(d); err != nil {
			r.op("metrics scrape", err)
		}
		st := d.cache.Stats()
		r.add("synth.cache_hit_frac", ratio(float64(st.Hits), float64(st.Hits+st.Misses)))
		accepted := d.man.Metrics().JobsAccepted.Load()
		r.add("service.journal_bytes_per_job", ratio(float64(d.journal.Stats().Bytes), float64(accepted)))
		r.op(fmt.Sprintf("pass %d yield probe", pass), r.probeDaemonYield(d, pass))
	}
	return wall, d.close()
}

// probeDaemonYield times single Monte-Carlo draws of the first catalog
// study's design, as the daemon's yield jobs run them. The study comes
// back from the daemon's synthesis cache.
func (r *runner) probeDaemonYield(d *daemon, pass int) error {
	opts, err := freshCatalog[0].Options()
	if err != nil {
		return err
	}
	opts.Workers = r.workers
	opts.Synth.Cache = d.cache
	owner := fmt.Sprintf("pass%d", pass)
	t0 := time.Now()
	st, err := core.Optimize(context.Background(), opts)
	if err != nil {
		return err
	}
	probe := r.tr.AddAt(0, "probe", "probe", owner, t0, time.Now())
	err = r.probeYield(probe, owner, st, opts)
	r.tr.Close(probe, time.Now())
	return err
}

// play submits one mix item, polls its status until the job is
// terminal, and (for fresh studies) reads its event log.
func (r *runner) play(d *daemon, it mixItem, posted func()) *outcome {
	o := &outcome{item: it}
	opts, err := it.Req.Options()
	if err != nil {
		posted()
		o.err = err
		return o
	}
	o.key = it.Req.JobKey(opts)
	body, _ := json.Marshal(it.Req) // a struct of plain fields always marshals
	o.postAt = time.Now()
	resp, err := d.client.Post(d.base+"/v1/studies", "application/json", bytes.NewReader(body))
	t1 := time.Now()
	posted()
	if err != nil {
		o.err = err
		return o
	}
	var sub service.SubmitResponse
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	r.add("service.submit_s", t1.Sub(o.postAt).Seconds())
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		r.mu.Lock()
		r.values["service.refused"]++
		r.mu.Unlock()
		o.err = errors.New("refused with 429")
		return o
	case resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK:
		o.err = fmt.Errorf("submit answered %d", resp.StatusCode)
		return o
	case err != nil:
		o.err = err
		return o
	}
	o.id, o.deduped = sub.ID, sub.Deduped
	// The request span is the client's view; its self time is the
	// client sleeping between polls, so it belongs to no layer.
	reqSpan := r.tr.Add(Span{Name: "client.request", Layer: "client", Owner: o.id, Start: r.tr.Since(o.postAt)})
	r.tr.AddAt(reqSpan, "http.POST", "service", o.id, o.postAt, t1)

	wait := time.Millisecond
	for {
		g0 := time.Now()
		o.err = d.getJSON("/v1/studies/"+o.id, &o.status)
		done := o.err != nil || o.status.State.Terminal()
		// A poll that finds the job still running is the client waiting
		// for it, recorded but no layer's self time: the clients share the
		// host with the daemon's busy workers, so most of such a round
		// trip is the client waiting to be scheduled. The submit and the
		// reads of the finished job are the service's work.
		layer := "wait"
		if done {
			layer = "service"
		}
		r.tr.AddAt(reqSpan, "http.GET", layer, o.id, g0, time.Now())
		if done {
			break
		}
		time.Sleep(wait)
		wait = min(wait*3/2, 10*time.Millisecond)
	}
	if o.err == nil && it.Kind == kindFresh {
		g0 := time.Now()
		o.feasible, o.points, o.err = d.pointFeasibility(o.id)
		r.tr.AddAt(reqSpan, "http.GET", "service", o.id, g0, time.Now())
	}
	r.tr.Close(reqSpan, time.Now())
	return o
}

func (d *daemon) getJSON(path string, v any) error {
	resp, err := d.client.Get(d.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s answered %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// pointFeasibility reads a finished job's event log and counts its
// design points and the feasible ones.
func (d *daemon) pointFeasibility(id string) (feasible, points int, err error) {
	resp, err := d.client.Get(d.base + "/v1/studies/" + id + "/events")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var ev service.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return 0, 0, err
		}
		if p := ev.Progress; p != nil && p.Kind == "point_done" {
			points++
			if p.Feasible {
				feasible++
			}
		}
	}
	return feasible, points, sc.Err()
}

// checkPass checks every outcome of a pass, records its samples, and
// compares results that must agree: a resubmission or a yield job with
// the request it refers to, and every request with its first pass.
func (r *runner) checkPass(pass int, outs []*outcome, first map[string]*service.StudyJSON) {
	jobSeen := map[string]bool{}
	for i, o := range outs {
		what := fmt.Sprintf("pass %d item %d (%s)", pass, i, o.item.Kind)
		err := o.err
		var res *service.StudyJSON
		if err == nil && o.status.State != service.StateDone {
			err = fmt.Errorf("job %s ended %s: %s", o.id, o.status.State, o.status.Error)
		}
		if err == nil {
			res = o.status.Result
			err = checkStudyJSON(res, o.item.Req, o.status.Evals)
		}
		if err == nil && o.item.Ref >= 0 && outs[o.item.Ref].status.Result != nil {
			// The referent ran first on the single executor, so a new job
			// for a resubmission or a yield study replays the synthesis.
			if !o.deduped && res.TotalEvals != 0 {
				err = fmt.Errorf("%s spent %d evaluations on a studied design", o.item.Kind, res.TotalEvals)
			}
			if err == nil {
				err = sameWinnerJSON(outs[o.item.Ref].status.Result, res)
			}
		}
		if err == nil {
			if prev, ok := first[o.key]; ok {
				err = sameWinnerJSON(prev, res)
			} else {
				first[o.key] = res
			}
		}
		r.op(what, err)
		if err != nil {
			continue
		}
		st := o.status
		// Latency depends on what the job queued behind, which the order
		// decides; taking each request kind's median first keeps the
		// figure independent of the order a seed drew.
		r.addIn("job_s", o.item.Kind, st.Finished.Sub(o.postAt).Seconds())
		if o.item.Kind == kindResubmit && !o.deduped {
			// A replay's own cost, once the executor takes it up; its
			// wait behind other jobs shows in job_s. Each replay is its
			// own input, so the figure is the median replay: a journal
			// fsync now and then takes several times the usual ~0.6 ms.
			r.addIn("replay_s", fmt.Sprintf("%d/%d", pass, i), st.Finished.Sub(*st.Started).Seconds())
		}
		r.add("dedup", b2f(o.deduped))
		if jobSeen[o.id] {
			continue
		}
		jobSeen[o.id] = true
		run := st.Finished.Sub(*st.Started)
		r.add("service.queue_wait_s", st.Started.Sub(st.Created).Seconds())
		r.add("service.run_s", run.Seconds())
		if r.tr.On() {
			job := r.tr.AddAt(0, "service.job", "service", o.id, st.Created, *st.Finished)
			r.tr.AddAt(job, "service.queue", "wait", o.id, st.Created, *st.Started)
			layer := "core"
			if o.item.Kind == kindYield {
				layer = "yield"
			}
			r.tr.AddAt(job, "service.run", layer, o.id, *st.Started, *st.Finished)
		}
		switch o.item.Kind {
		case kindFresh:
			r.addIn("study_s", o.key, run.Seconds())
			r.add("synth.evals_per_study", float64(res.TotalEvals))
			if pass == 0 {
				r.recordQualityJSON(res, o.feasible, o.points)
			}
		case kindYield:
			r.add("yield.draws_per_s", float64(res.Yield.Draws)/run.Seconds())
		}
	}
}

// recordQualityJSON folds one fresh daemon study into the quality
// figures.
func (r *runner) recordQualityJSON(res *service.StudyJSON, feasible, points int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.winnerPower = append(r.winnerPower, res.Best.TotalPowerW*1e3)
	for _, s := range res.Best.Stages {
		r.winnerStages++
		if s.Feasible {
			r.winnerFeasible++
		}
	}
	r.points += points
	r.pointsFeasible += feasible
	r.winners++
	if len(res.Best.Config) > 0 && res.Best.Config[0] == 4 {
		r.winnersM1of4++
	}
}

// scrapeEvalLatency reads the daemon's evaluation-latency histogram from
// /metrics and records its p50 and p99 (linear within a bucket).
func (r *runner) scrapeEvalLatency(d *daemon) error {
	resp, err := d.client.Get(d.base + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var bounds, cum []float64
	sc := bufio.NewScanner(resp.Body)
	const prefix = `adcsynd_eval_duration_seconds_bucket{le="`
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		rest := strings.TrimPrefix(line, prefix)
		q := strings.Index(rest, `"} `)
		if q < 0 {
			return fmt.Errorf("malformed bucket line %q", line)
		}
		ub := math.Inf(1)
		if s := rest[:q]; s != "+Inf" {
			if ub, err = strconv.ParseFloat(s, 64); err != nil {
				return err
			}
		}
		n, err := strconv.ParseFloat(rest[q+3:], 64)
		if err != nil {
			return err
		}
		bounds, cum = append(bounds, ub), append(cum, n)
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(cum) == 0 {
		return errors.New("no evaluation histogram in /metrics")
	}
	r.add("hybrid.eval_s.p50", histQuantile(bounds, cum, 0.5))
	r.add("hybrid.eval_s.p99", histQuantile(bounds, cum, 0.99))
	return nil
}

// histQuantile estimates a quantile from cumulative histogram buckets,
// interpolating linearly inside the bucket that holds it (the +Inf
// bucket reports its lower bound).
func histQuantile(bounds, cum []float64, q float64) float64 {
	total := cum[len(cum)-1]
	if total == 0 {
		return 0
	}
	rank := q * total
	lo, prev := 0.0, 0.0
	for i, c := range cum {
		if c >= rank {
			if math.IsInf(bounds[i], 1) || c == prev {
				return lo
			}
			return lo + (bounds[i]-lo)*(rank-prev)/(c-prev)
		}
		lo, prev = bounds[i], c
	}
	return lo
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
