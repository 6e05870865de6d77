package main

import (
	"fmt"
	"math/rand"

	"pipesyn/internal/core"
	"pipesyn/internal/hybrid"
	"pipesyn/internal/service"
	"pipesyn/internal/synth"
)

// Workload is one benchmark scenario and the one-line reason it was
// chosen. BENCHMARK.json carries the same reasons.
type Workload struct {
	Name string
	Why  string
}

var workloads = []Workload{
	{"study13_hybrid", "the paper's 13-bit 40 MSPS study on the default search path, where the transient leg takes most of the CPU"},
	{"study13_fastpath", "the same studies with BatchEval 4, NewtonReuse and Race, so a fast path that changes the answer shows"},
	{"sweep_equation", "a 10-13-bit equation-only sweep: no simulator work, so search, enumeration and scheduling dominate"},
	{"daemon_mixed", "an in-process adcsynd under 2 HTTP clients: fresh, replayed, equation and yield jobs through service, journal and cache"},
}

func findWorkload(name string) (Workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// refPanel is the fixed study-seed panel the quality metrics come from.
// Quality then compares paired and noise-free between two commits: the
// same seeds, so any change in the winners is the code's doing. The run
// seed draws everything else: the order of the studies and the extra
// sweeps of the equation workload.
var refPanel = []int64{1, 7, 13, 19}

// sweepExtra is the number of seed-drawn sweeps an equation-sweep pass
// runs besides the reference ones.
const sweepExtra = 12

// studyInput is one study the runner drives through core.Optimize.
type studyInput struct {
	ID   string
	Opts core.Options
}

// jobInput is one unit of timed work: a single 13-bit study, or a
// 10-13-bit sweep of four studies run one after another. Reference jobs
// carry the quality metrics.
type jobInput struct {
	ID        string
	Studies   []studyInput
	Reference bool
}

// studyPanel generates the jobs of one pass of a study workload, in a
// seed-drawn order.
func studyPanel(workload string, seed int64, workers int) []jobInput {
	rng := rand.New(rand.NewSource(seed))
	var out []jobInput
	switch workload {
	case "study13_hybrid", "study13_fastpath":
		for _, s := range refPanel {
			id := fmt.Sprintf("b13-s%d", s)
			out = append(out, jobInput{ID: id, Reference: true,
				Studies: []studyInput{{ID: id, Opts: study13Options(workload, s, workers)}}})
		}
	case "sweep_equation":
		seeds := append([]int64(nil), refPanel...)
		for k := 0; k < sweepExtra; k++ {
			seeds = append(seeds, 1000+rng.Int63n(1<<30))
		}
		for k, s := range seeds {
			job := jobInput{ID: fmt.Sprintf("sweep-s%d", s), Reference: k < len(refPanel)}
			for bits := 10; bits <= 13; bits++ {
				job.Studies = append(job.Studies, studyInput{
					ID: fmt.Sprintf("eq-b%d-s%d", bits, s),
					Opts: core.Options{Bits: bits, Mode: hybrid.EquationOnly, Workers: workers,
						Synth: synth.Options{Seed: s, Restarts: 2}},
				})
			}
			out = append(out, job)
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// study13Options is the paper's 13-bit 40 MSPS study at the benchmark
// budget, on the default search path or on the fast path.
func study13Options(workload string, seed int64, workers int) core.Options {
	o := core.Options{Bits: 13, SampleRate: 40e6, Mode: hybrid.Hybrid, Workers: workers,
		Synth: synth.Options{Seed: seed, MaxEvals: 40, PatternIter: 20}}
	if workload == "study13_fastpath" {
		o.Race = true
		o.Synth.BatchEval = 4
		o.Synth.NewtonReuse = true
	}
	return o
}

// Daemon request kinds.
const (
	kindFresh    = "fresh"    // a small hybrid study nobody asked for yet
	kindResubmit = "resubmit" // an earlier request again: cache replay or single-flight
	kindEquation = "equation" // an equation-only study
	kindYield    = "yield"    // Monte-Carlo yield of a design already studied
)

// mixItem is one request of the daemon mix. Ref is the index of the
// earlier item a resubmission or yield job refers to (-1 otherwise).
type mixItem struct {
	Kind string
	Req  service.StudyRequest
	Ref  int
}

// freshCatalog is the set of small hybrid studies every daemon pass
// submits once. Like refPanel it is fixed so the quality of the fresh
// studies compares paired between commits; the seed draws the order,
// the resubmissions, the equation studies and the yield jobs.
var freshCatalog = []service.StudyRequest{
	{Bits: 10, Evals: 12, Pattern: 6, Seed: 1},
	{Bits: 11, Evals: 12, Pattern: 6, Seed: 2},
	{Bits: 12, Evals: 12, Pattern: 6, Seed: 3},
	{Bits: 11, Evals: 12, Pattern: 6, Seed: 4},
}

// yieldDraws is the draw count of every daemon yield job.
const yieldDraws = 200

// equationPerBits is how many equation studies a daemon pass submits per
// resolution 10-13. They are cheap, so several give the latency of a job
// that mostly waits behind others enough samples to be steady.
const equationPerBits = 2

// mixCounts is the composition of every daemon pass: each catalog study
// once, equationPerBits equation studies per resolution 10-13, one
// resubmission of each of those, and one yield job per catalog study. It
// is fixed so that passes drawn from different seeds carry the same
// work; the seed draws the order and the equation studies' seeds.
//
// The shares (4 fresh, 8 equation, 12 resubmissions, 4 yield in 28) are
// an assumption, not measured traffic: the repository holds no recorded
// adcsynd traffic. Each share has a reason of its own. Fresh: every
// catalog study once, the expensive path, few enough that a pass takes
// a few seconds. Equation: cheap jobs that queue behind the hybrid ones
// on the single executor, many enough to sample that latency. Resubmit:
// one re-run of every study, so each study exercises a cache replay or
// single-flight dedupe once, as a re-run study, a regenerated figure or
// a re-run after a crash would. Yield: one sign-off of every freshly
// studied design. The daemon's jobs_per_s, synth.cache_hit_frac,
// service.dedup_frac and alloc_MB_per_job follow from these shares; they
// compare commits on this mix and do not stand for real traffic.
var mixCounts = map[string]int{kindFresh: len(freshCatalog), kindEquation: 4 * equationPerBits,
	kindResubmit: len(freshCatalog) + 4*equationPerBits, kindYield: len(freshCatalog)}

// daemonMix generates pass number pass of the daemon workload. Every
// pass of a run draws a new order, so one run already averages over
// several. References always point backwards, so a client handling a
// resubmission or yield job can wait for its referent to be submitted
// first.
func daemonMix(seed int64, pass int) []mixItem {
	rng := rand.New(rand.NewSource(seed))
	var out []mixItem
	for p := 0; p <= pass; p++ {
		out = drawMix(rng)
	}
	return out
}

// drawMix draws one pass in a random order that respects the references:
// a resubmission or yield job becomes eligible once its study is placed.
func drawMix(rng *rand.Rand) []mixItem {
	var ready []mixItem
	for _, req := range freshCatalog {
		ready = append(ready, mixItem{Kind: kindFresh, Req: req, Ref: -1})
	}
	for bits := 10; bits <= 13; bits++ {
		for k := 0; k < equationPerBits; k++ {
			req := service.StudyRequest{Bits: bits, Mode: "equation", Seed: 1 + rng.Int63n(1<<30)}
			ready = append(ready, mixItem{Kind: kindEquation, Req: req, Ref: -1})
		}
	}
	var out []mixItem
	for len(ready) > 0 {
		i := rng.Intn(len(ready))
		it := ready[i]
		ready = append(ready[:i], ready[i+1:]...)
		out = append(out, it)
		if it.Ref >= 0 {
			continue
		}
		at := len(out) - 1
		ready = append(ready, mixItem{Kind: kindResubmit, Req: it.Req, Ref: at})
		if it.Kind == kindFresh {
			y := it.Req
			y.Mode = "yield"
			y.Draws = yieldDraws
			ready = append(ready, mixItem{Kind: kindYield, Req: y, Ref: at})
		}
	}
	return out
}
