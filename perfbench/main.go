// Command perfbench is the repository benchmark: it drives the shipped
// synthesis flow through its public functions, checks every output, and
// prints end-to-end metrics (or, with -trace 1, per-layer metrics and
// self times) with their units. The last line of its output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	bash perfbench/run.sh --workload study13_hybrid --seed 1 --seconds 12 --trace 0
//
// See README.md in this directory for the workloads, the metrics and the
// layer each metric watches.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 12, "measurement time per run")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics and self times")
	out := fs.String("out", "", "directory for the traced run's span file (none when empty)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// Load comes from at most nproc workers, capped at 2 so that a run on
	// a bigger host does the same work as on the 2-core reference host.
	workers := min(runtime.NumCPU(), 2)
	w, ok := findWorkload(*workload)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q)\n", *workload)
		return 2
	}
	if err := validateMetrics(endToEnd, perLayer); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}

	r := newRunner(w.Name, *seed, *seconds, workers)
	stopHeap := func() {}
	if *trace == 1 {
		r.tr = newTracer()
		stopHeap = sampleHeap(&r.heapPeak)
	}
	var err error
	if w.Name == "daemon_mixed" {
		err = runDaemon(r)
	} else {
		err = runStudies(r)
	}
	stopHeap()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, f := range r.failures {
		fmt.Fprintln(stderr, "perfbench: check failed:", f)
	}

	list := endToEnd
	if r.tr.On() {
		list = perLayer
		r.traceSummary()
		if *out != "" {
			path := filepath.Join(*out, fmt.Sprintf("trace-%s-%d.jsonl", w.Name, *seed))
			if err := r.tr.WriteFile(path); err != nil {
				fmt.Fprintln(stderr, "perfbench:", err)
				return 1
			}
			fmt.Fprintln(stderr, "perfbench: spans written to", path)
		}
	} else {
		r.endToEndSummary()
	}
	fmt.Fprintf(stdout, "workload %s (seed %d, %d workers): %s\n", w.Name, *seed, workers, w.Why)
	if err := writeResult(stdout, list, r.values, r.notes(), r.attempted, r.failed); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if r.failed > 0 {
		return 1
	}
	return 0
}

// runner holds one run's configuration and everything it measured.
// Samples are named distributions; values are the final metrics.
type runner struct {
	workload string
	seed     int64
	seconds  float64
	workers  int
	tr       *Tracer // nil on untraced runs

	mu        sync.Mutex
	samples   map[string][]float64
	groups    map[string]map[string][]float64 // per-input samples, see addIn
	values    map[string]float64
	attempted int
	failed    int
	failures  []string
	heapPeak  uint64

	// Quality of the first pass over the panel.
	winnerPower                  []float64
	winnerStages, winnerFeasible int
	points, pointsFeasible       int
	winnersM1of4, winners        int

	measured  time.Duration // wall of the passes, set-ups excluded
	jobs      int           // jobs completed in it
	allocated uint64        // heap bytes allocated in it
}

func newRunner(workload string, seed int64, seconds float64, workers int) *runner {
	return &runner{workload: workload, seed: seed, seconds: seconds, workers: workers,
		samples: map[string][]float64{}, groups: map[string]map[string][]float64{},
		values: map[string]float64{}}
}

func (r *runner) add(name string, v ...float64) {
	r.mu.Lock()
	r.samples[name] = append(r.samples[name], v...)
	r.mu.Unlock()
}

// addIn records a sample of name for one input (a study, a catalog
// request, a request kind). Summaries take each input's mean first, so a
// figure does not depend on how often each input happened to run; the
// mean, not the median, because a daemon request kind's latencies are
// bimodal (queued behind another job or not) and only their mean is
// steady from run to run.
func (r *runner) addIn(name, input string, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.groups[name] == nil {
		r.groups[name] = map[string][]float64{}
	}
	r.groups[name][input] = append(r.groups[name][input], v)
}

// notes gives each percentile metric its sample count.
func (r *runner) notes() map[string]string {
	out := map[string]string{}
	for name, byInput := range r.groups {
		n := 0
		for _, vs := range byInput {
			n += len(vs)
		}
		note := fmt.Sprintf("(n=%d over %d inputs)", n, len(byInput))
		for _, q := range []string{".p50", ".p90"} {
			out[name+q] = note
		}
	}
	for name, vs := range r.samples {
		for _, q := range []string{"", ".p50", ".p99"} {
			if _, grouped := out[name+q]; !grouped {
				out[name+q] = fmt.Sprintf("(n=%d)", len(vs))
			}
		}
	}
	out["winner_power_mW.p50"] = fmt.Sprintf("(n=%d reference jobs)", len(r.winnerPower))
	return out
}

// inputQuantile is the q-quantile over the per-input means of name.
func (r *runner) inputQuantile(name string, q float64) float64 {
	var means []float64
	for _, vs := range r.groups[name] {
		means = append(means, sum(vs)/float64(len(vs)))
	}
	return quantile(means, q)
}

// another reports whether a run that started at start should begin
// another pass, the last one having started at passStart: it does while
// at least half a pass like the last fits in the run time, so a run ends
// within half a pass of --seconds.
func (r *runner) another(start, passStart time.Time) bool {
	now := time.Now()
	return now.Sub(start).Seconds()+now.Sub(passStart).Seconds()/2 < r.seconds
}

// op records one attempted operation and, when err is set, its failure.
func (r *runner) op(what string, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		r.failures = append(r.failures, what+": "+err.Error())
	}
}

// endToEndSummary turns the samples into the end-to-end metrics.
func (r *runner) endToEndSummary() {
	s, v := r.samples, r.values
	v["setup_s"] = median(s["setup_s"])
	v["study_s.p50"] = r.inputQuantile("study_s", 0.5)
	v["study_s.p90"] = r.inputQuantile("study_s", 0.9)
	v["winner_power_mW.p50"] = median(r.winnerPower)
	v["winner_feasible_frac"] = ratio(float64(r.winnerFeasible), float64(r.winnerStages))
	v["points_feasible_frac"] = ratio(float64(r.pointsFeasible), float64(r.points))
	v["ok_frac"] = ratio(float64(r.attempted-r.failed), float64(r.attempted))
	v["alloc_MB_per_job"] = ratio(float64(r.allocated)/(1<<20), float64(r.jobs))
	v["job_s.p50"] = r.inputQuantile("job_s", 0.5)
	v["job_s.p90"] = r.inputQuantile("job_s", 0.9)
	v["jobs_per_s"] = ratio(float64(r.jobs), r.measured.Seconds())
	v["replay_s.p50"] = r.inputQuantile("replay_s", 0.5)
}

// traceSummary fills the per-layer metrics: the medians of the layer
// samples and the self time per layer from the spans.
func (r *runner) traceSummary() {
	s, v := r.samples, r.values
	for _, m := range perLayer {
		if _, ok := v[m.Name]; ok {
			continue
		}
		if exact, ok := s[m.Name]; ok {
			v[m.Name] = median(exact)
			continue
		}
		name := m.Name
		q := 0.5
		switch {
		case strings.HasSuffix(name, ".p50"):
			name = strings.TrimSuffix(name, ".p50")
		case strings.HasSuffix(name, ".p99"):
			name, q = strings.TrimSuffix(name, ".p99"), 0.99
		}
		v[m.Name] = quantile(s[name], q)
	}
	v["heap_peak_MB"] = float64(r.heapPeak) / (1 << 20)
	v["core.winner_m1_4_frac"] = ratio(float64(r.winnersM1of4), float64(r.winners))
	v["service.dedup_frac"] = ratio(sum(s["dedup"]), float64(len(s["dedup"])))
	spans := r.tr.Spans()
	self := selfTimes(spans)
	for _, l := range selfLayers {
		v["self_s."+l] = self[l].Seconds()
	}
	v["trace.spans"] = float64(len(spans))
	// study_s.p50 as the traced run measured it. trace.overhead_frac,
	// set by the workload, is measured against untraced runs of the
	// same work in this process.
	v["trace.study_s.p50"] = r.inputQuantile("study_s", 0.5)
}

// sampleHeap tracks the peak of live-plus-unswept heap objects until the
// returned stop function is called.
func sampleHeap(peak *uint64) (stop func()) {
	done := make(chan struct{})
	finished := make(chan struct{})
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	read := func() {
		metrics.Read(sample)
		if b := sample[0].Value.Uint64(); b > *peak {
			*peak = b
		}
	}
	go func() {
		defer close(finished)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				read()
				return
			case <-tick.C:
				read()
			}
		}
	}()
	return func() { close(done); <-finished }
}

// heapAllocs is the cumulative count of bytes allocated on the heap.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
