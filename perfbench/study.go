package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"pipesyn/internal/core"
	"pipesyn/internal/service"
	"pipesyn/internal/sim"
	"pipesyn/internal/synth"
)

// setupsPerPass is how many times a study run sets up before each pass;
// setup_s is the median over the run. One set-up takes 0.1-2 ms and the
// host's load changes from second to second, so the set-ups are spread
// over the run instead of taken in one burst.
const setupsPerPass = 50

// probeStudies is how many studies of a traced run get layer probes.
const probeStudies = 2

// The tracing overhead is measured on pairs of untraced and traced runs
// of one reference job: at least overheadMinPairs of them, then more
// while they have used less than overheadShare of the run time, up to
// overheadMaxPairs.
const (
	overheadMinPairs = 2
	overheadMaxPairs = 32
	overheadShare    = 0.2
)

// runStudies drives a study workload: passes over the panel, one job at
// a time on the configured workers, each study from an empty synthesis
// cache, until the run time is used. Each study is checked, encoded as
// the daemon would, and replayed from its cache. Quality comes from the
// reference jobs of the first pass; later passes must reproduce every
// winner exactly.
func runStudies(r *runner) error {
	setup := func() (panel []jobInput, err error) {
		for i := 0; i < setupsPerPass; i++ {
			t0 := time.Now()
			if panel, err = prepareStudies(r); err != nil {
				return nil, err
			}
			r.add("setup_s", time.Since(t0).Seconds())
		}
		return panel, nil
	}
	panel, err := setup()
	if err != nil {
		return err
	}

	first := map[string]*core.Study{}
	probed := 0
	start := time.Now()
	if r.tr.On() {
		r.values["trace.overhead_frac"] = r.studyOverhead(panel)
	}
	for pass := 0; ; pass++ {
		if pass > 0 {
			if _, err := setup(); err != nil {
				return err
			}
		}
		passStart, alloc0 := time.Now(), heapAllocs()
		for _, job := range panel {
			r.runJob(job, pass == 0, first, &probed)
		}
		r.measured += time.Since(passStart)
		r.allocated += heapAllocs() - alloc0
		if !r.another(start, passStart) {
			break
		}
	}

	if r.tr.On() {
		r.values["race.evals_saved_frac"] = 0
		if r.workload == "study13_fastpath" {
			r.values["race.evals_saved_frac"] = r.raceSaving(panel, first)
		}
	}
	return nil
}

// studyOverhead measures what tracing costs a study: the panel's first
// reference job, run alternately untraced (as a --trace 0 run runs it)
// and traced (hooks on, spans built), each study from an empty cache.
// It returns the median traced time over the median untraced time,
// minus 1. Each pair swaps which half runs first.
func (r *runner) studyOverhead(panel []jobInput) float64 {
	var job jobInput
	for _, j := range panel {
		if j.Reference {
			job = j
			break
		}
	}
	runJob := func(traced bool) float64 {
		var total time.Duration
		for _, in := range job.Studies {
			opts, _, rec, err := r.studyOptions(in, traced)
			if err != nil {
				r.op(in.ID+" overhead", err)
				continue
			}
			t0 := time.Now()
			_, err = core.Optimize(context.Background(), opts)
			if traced {
				rec.spans(in.ID, t0, time.Now())
			}
			total += time.Since(t0)
			r.op(in.ID+" overhead", err)
		}
		return total.Seconds()
	}
	var plain, traced []float64
	t0 := time.Now()
	for k := 0; k < overheadMaxPairs; k++ {
		if k >= overheadMinPairs && time.Since(t0).Seconds() >= overheadShare*r.seconds {
			break
		}
		for _, on := range []bool{k%2 == 1, k%2 == 0} {
			if on {
				traced = append(traced, runJob(true))
			} else {
				plain = append(plain, runJob(false))
			}
		}
	}
	return ratio(median(traced), median(plain)) - 1
}

// raceSaving is the share of evaluations the fast path saves against the
// default search path at the same seeds.
func (r *runner) raceSaving(panel []jobInput, first map[string]*core.Study) float64 {
	var def, fast int
	for _, job := range panel {
		for _, in := range job.Studies {
			st, err := core.Optimize(context.Background(), study13Options("study13_hybrid", in.Opts.Synth.Seed, r.workers))
			r.op(in.ID+" default-path reference", err)
			if err == nil && first[in.ID] != nil {
				def += st.TotalEvals
				fast += first[in.ID].TotalEvals
			}
		}
	}
	return 1 - ratio(float64(fast), float64(def))
}

// prepareStudies is the set-up of a study workload: generate the inputs,
// then enumerate, translate and key every study, as a caller validates
// its requests before submitting them.
func prepareStudies(r *runner) ([]jobInput, error) {
	panel := studyPanel(r.workload, r.seed, r.workers)
	for _, job := range panel {
		for _, in := range job.Studies {
			if _, err := designPointSpecs(in.Opts.WithDefaults()); err != nil {
				return nil, err
			}
			_ = core.StudyKey(in.Opts)
		}
	}
	return panel, nil
}

// runJob runs a job's studies one after another and records the job's
// times: the studies alone, the studies with their checks and encoding,
// and their replays.
func (r *runner) runJob(job jobInput, firstPass bool, first map[string]*core.Study, probed *int) {
	var study, whole, replay time.Duration
	var sts []*core.Study
	for _, in := range job.Studies {
		st, t, ok := r.runStudy(in)
		if !ok {
			return
		}
		study, whole, replay = study+t.study, whole+t.job, replay+t.replay
		sts = append(sts, st)
		if prev, seen := first[in.ID]; seen {
			r.op(in.ID+" rerun", sameWinner(prev.Best, st.Best))
		} else {
			first[in.ID] = st
		}
		if r.tr.On() && *probed < probeStudies {
			*probed++
			r.probeStudy(in, st)
		}
	}
	r.addIn("study_s", job.ID, study.Seconds())
	r.addIn("job_s", job.ID, whole.Seconds())
	r.addIn("replay_s", job.ID, replay.Seconds())
	r.jobs++
	if firstPass && job.Reference {
		r.recordQuality(sts)
	}
}

// studyTimes are one study's wall times.
type studyTimes struct {
	study  time.Duration // core.Optimize
	job    time.Duration // core.Optimize, output checks and encoding
	replay time.Duration // the replay from the synthesis cache
}

// studyOptions returns a study's options with an empty synthesis cache
// and the progress hooks of a run: untraced, the count of design-point
// evaluations the output checks need; traced, also the design-point and
// evaluation timings.
func (r *runner) studyOptions(in studyInput, traced bool) (core.Options, *synth.Cache, *studyRec, error) {
	opts := in.Opts
	cache, err := synth.NewCache(0, "")
	if err != nil {
		return opts, nil, nil, err
	}
	opts.Synth.Cache = cache
	rec := newStudyRec(r.tr, traced)
	opts.Progress = rec.progress
	if traced {
		opts.Synth.Progress = func(p synth.Progress) { rec.eval(p.Elapsed) }
	}
	return opts, cache, rec, nil
}

// runStudy runs, checks, encodes and replays one study. It reports the
// study, its times and whether every step succeeded.
func (r *runner) runStudy(in studyInput) (*core.Study, studyTimes, bool) {
	var t studyTimes
	opts, cache, rec, err := r.studyOptions(in, r.tr.On())
	if err != nil {
		r.op(in.ID, err)
		return nil, t, false
	}

	ks0, alloc0 := sim.ReadKernelStats(), heapAllocs()
	t0 := time.Now()
	st, err := core.Optimize(context.Background(), opts)
	t1 := time.Now()
	ks1, alloc1 := sim.ReadKernelStats(), heapAllocs()
	if err == nil {
		err = checkStudy(st, opts, rec.pointEvals())
	}
	if err == nil {
		_, err = json.Marshal(service.EncodeStudy(st, opts.Mode, t1.Sub(t0)))
	}
	t2 := time.Now()
	r.op(in.ID, err)
	if err != nil {
		return nil, t, false
	}

	// Replay from the study's own cache: no evaluator calls, same winner.
	// A replay takes well under a millisecond, so it is repeated and the
	// median kept.
	ropts := in.Opts
	ropts.Synth.Cache = cache
	replays := make([]float64, replayRepeats)
	t3 := time.Now()
	for i := range replays {
		r0 := time.Now()
		replay, err := core.Optimize(context.Background(), ropts)
		replays[i] = time.Since(r0).Seconds()
		if err == nil {
			err = checkReplay(st, replay)
		}
		if err != nil {
			r.op(in.ID+" replay", err)
			return nil, t, false
		}
	}
	t4 := time.Now()
	r.op(in.ID+" replay", nil)
	if r.tr.On() {
		r.recordStudyLayers(in, st, rec, t0, t1, t3, t4, ks0, ks1, alloc1-alloc0)
	}
	replay := time.Duration(median(replays) * float64(time.Second))
	return st, studyTimes{study: t1.Sub(t0), job: t2.Sub(t0), replay: replay}, true
}

// replayRepeats is how many times each study is replayed from its cache.
const replayRepeats = 16

// recordQuality folds one reference job into the quality figures. The
// job's winner power is the sum over its studies: one 13-bit study, or
// the four resolutions of a sweep.
func (r *runner) recordQuality(sts []*core.Study) {
	p := 0.0
	for _, st := range sts {
		p += st.Best.TotalPower * 1e3
		for _, s := range st.Best.Stages {
			r.winnerStages++
			if s.Feasible {
				r.winnerFeasible++
			}
		}
		for _, m := range st.MDACs {
			r.points++
			if m.Result.Feasible {
				r.pointsFeasible++
			}
		}
		r.winners++
		if st.Best.Config[0] == 4 {
			r.winnersM1of4++
		}
	}
	r.winnerPower = append(r.winnerPower, p)
}

// recordStudyLayers turns one traced study into spans and layer samples.
func (r *runner) recordStudyLayers(in studyInput, st *core.Study, rec *studyRec,
	t0, t1, t3, t4 time.Time, ks0, ks1 sim.KernelStats, alloc uint64) {
	evals := float64(st.TotalEvals)
	r.add("synth.evals_per_study", evals)
	r.add("la.factorizations_per_eval", ratio(float64(ks1.Factorizations-ks0.Factorizations), evals))
	r.add("sim.reused_solves_per_eval", ratio(float64(ks1.ReusedSolves-ks0.ReusedSolves), evals))
	r.add("sim.reuse_fallbacks", float64(ks1.ReuseFallbacks-ks0.ReuseFallbacks))
	r.add("la.ordered_fallbacks", float64(ks1.OrderedFallbacks-ks0.OrderedFallbacks))
	var batches int64
	for i := range ks1.BatchWidths {
		batches += ks1.BatchWidths[i] - ks0.BatchWidths[i]
	}
	if batches > 0 {
		r.add("sim.batch_width_mean", float64(ks1.BatchWidthSum-ks0.BatchWidthSum)/float64(batches))
	}
	r.add("core.alloc_MB_per_study", float64(alloc)/(1<<20))
	for _, m := range st.MDACs {
		if m.Result.EvalsToFeasible >= 0 {
			r.add("synth.evals_to_feasible", float64(m.Result.EvalsToFeasible))
		}
	}
	if st.Race != nil {
		r.add("race.pruned", float64(st.Race.Pruned))
		r.add("race.promotions", float64(st.Race.Promotions))
	}

	spans := rec.spans(in.ID, t0, t1)
	var pointSum, queueSum time.Duration
	for _, s := range spans {
		switch s.Name {
		case "synth.point":
			d := s.End - s.Start
			pointSum += d
			r.add("synth.point_s", d.Seconds())
		case "sched.queue_wait":
			queueSum += s.End - s.Start
			r.add("sched.queue_wait_s", (s.End - s.Start).Seconds())
		}
	}
	// synth self time is taken for the whole study: its summed design
	// point spans minus its evaluation time. It is not clamped, so when a
	// lone design point runs its restarts on both workers (evaluation
	// time beyond its span) the figure shows that as less synth time.
	self := selfTimes(spans)
	r.add("synth.self_s", self["synth"].Seconds())
	r.add("core.self_s", self["core"].Seconds())
	r.add("sched.busy_frac", ratio(pointSum.Seconds(), t1.Sub(t0).Seconds()*float64(r.workers)))
	r.add("hybrid.eval_s", rec.evalSeconds()...)
	r.tr.AddTree(spans)
	r.tr.AddAt(0, "core.replay", "core", in.ID, t3, t4)
}

// studyRec observes one study through core's and synth's progress hooks.
// Untraced it only sums the design points' evaluations (an output
// check); traced it also times design points, racing rungs and the
// evaluations. The evaluation hook does not say which design point ran
// an evaluation, so evaluation time is kept for the whole study.
type studyRec struct {
	tr    *Tracer
	trace bool

	mu       sync.Mutex
	evalsSum int
	plan     time.Time
	points   []*pointRec
	rungEnds []time.Time
	evalTime time.Duration // summed duration of the study's evaluations
	evalDur  []float64     // a uniform sample of evaluation durations
	evalSeen int
	evalRand *rand.Rand
}

// evalSample bounds the evaluation durations one study keeps.
const evalSample = 1024

type pointRec struct {
	point, rung int
	start, end  time.Time
	evals       int // as point_done reported them
}

func newStudyRec(tr *Tracer, trace bool) *studyRec {
	return &studyRec{tr: tr, trace: trace, evalRand: rand.New(rand.NewSource(1))}
}

func (s *studyRec) pointEvals() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.evalsSum
}

func (s *studyRec) progress(ev core.ProgressEvent) {
	s.progressAt(ev.Kind, ev.Point, ev.Rung, ev.Evals, time.Now())
}

func (s *studyRec) progressAt(kind string, point, rung, evals int, at time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if kind == "point_done" {
		s.evalsSum += evals
	}
	if !s.trace {
		return
	}
	switch kind {
	case "plan":
		s.plan = at
	case "point_start":
		s.points = append(s.points, &pointRec{point: point, rung: rung, start: at})
	case "point_done":
		for _, p := range s.points {
			if p.point == point && p.rung == rung && p.end.IsZero() {
				p.end, p.evals = at, evals
				break
			}
		}
	case "race_rung":
		s.rungEnds = append(s.rungEnds, at)
	}
}

// eval records one finished evaluation. An equation study makes ~20k, too
// many to keep over a run, so only a uniform sample of their durations
// is kept (reservoir sampling) next to their sum.
func (s *studyRec) eval(elapsed time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.evalTime += elapsed
	s.evalSeen++
	if len(s.evalDur) < evalSample {
		s.evalDur = append(s.evalDur, elapsed.Seconds())
	} else if k := s.evalRand.Intn(s.evalSeen); k < evalSample {
		s.evalDur[k] = elapsed.Seconds()
	}
}

func (s *studyRec) evalSeconds() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.evalDur
}

// spans builds the study's span tree with local ids: the study (with its
// summed evaluation time), its racing rungs, its design points (with
// their evaluation counts) and each point's wait for a worker.
func (s *studyRec) spans(owner string, t0, t1 time.Time) []Span {
	s.mu.Lock()
	defer s.mu.Unlock()
	tr := s.tr
	out := []Span{{ID: 1, Name: "core.Optimize", Layer: "core", Owner: owner,
		Start: tr.Since(t0), End: tr.Since(t1), EvalTime: s.evalTime}}
	add := func(sp Span) int {
		sp.ID = len(out) + 1
		sp.Owner = owner
		out = append(out, sp)
		return sp.ID
	}
	rungIDs := make([]int, len(s.rungEnds))
	rungStarts := make([]time.Time, len(s.rungEnds))
	for i, end := range s.rungEnds {
		rungStarts[i] = t0
		if i > 0 {
			rungStarts[i] = s.rungEnds[i-1]
		}
		rungIDs[i] = add(Span{Parent: 1, Name: fmt.Sprintf("race.rung%d", i+1), Layer: "race",
			Start: tr.Since(rungStarts[i]), End: tr.Since(end)})
	}
	for _, p := range s.points {
		parent, ready := 1, s.plan
		if p.rung > 0 && p.rung <= len(rungIDs) {
			parent, ready = rungIDs[p.rung-1], rungStarts[p.rung-1]
		}
		if ready.IsZero() {
			ready = t0
		}
		end := p.end
		if end.IsZero() {
			end = t1
		}
		// The wait for a worker is not work of any layer ("wait" has no
		// self time to report). The scheduler's own cost is the dispatch
		// gap: from the moment a worker came free (the latest design
		// point done before this one started, or the point becoming
		// ready) to this point's start.
		free := ready
		for _, q := range s.points {
			if q != p && q.rung == p.rung && !q.end.IsZero() && !q.end.After(p.start) && q.end.After(free) {
				free = q.end
			}
		}
		if p.start.After(ready) {
			add(Span{Parent: parent, Name: "sched.queue_wait", Layer: "wait",
				Start: tr.Since(ready), End: tr.Since(p.start)})
		}
		add(Span{Parent: parent, Name: "sched.dispatch", Layer: "sched",
			Start: tr.Since(free), End: tr.Since(p.start)})
		add(Span{Parent: parent, Name: "synth.point", Layer: "synth",
			Start: tr.Since(p.start), End: tr.Since(end), Evals: p.evals})
	}
	return out
}
