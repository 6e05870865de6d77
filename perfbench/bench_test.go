package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"pipesyn/internal/core"
	"pipesyn/internal/hybrid"
	"pipesyn/internal/synth"
)

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []Span{
		// The study's 4 ms of evaluations ran inside its design points.
		{ID: 1, Name: "study", Layer: "core", Start: 0, End: 10 * ms, EvalTime: 4 * ms},
		// Overlapping children (two workers) count once; a child running
		// past its parent is clipped to it.
		{ID: 2, Parent: 1, Name: "a", Layer: "synth", Start: 1 * ms, End: 4 * ms},
		{ID: 3, Parent: 1, Name: "b", Layer: "synth", Start: 3 * ms, End: 6 * ms},
		{ID: 4, Parent: 1, Name: "c", Layer: "sched", Start: 8 * ms, End: 12 * ms},
		{ID: 5, Name: "d", Layer: "synth", Start: 0, End: 1 * ms},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"core":   3 * ms,            // 10 - |[1,6] ∪ [8,10]| = 10 - 7
		"synth":  (3+3+1)*ms - 4*ms, // a + b + d, minus the evaluations
		"sched":  4 * ms,
		"hybrid": 4 * ms,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
	// A lone design point whose two restarts ran on both workers holds
	// more evaluation time than its span: synth time is not clamped.
	got = selfTimes([]Span{
		{ID: 1, Name: "study", Layer: "core", Start: 0, End: 2 * ms, EvalTime: 3 * ms},
		{ID: 2, Parent: 1, Name: "p", Layer: "synth", Start: 0, End: 2 * ms},
	})
	if got["synth"] != -ms || got["hybrid"] != 3*ms || got["core"] != 0 {
		t.Fatalf("overlapping restarts: selfTimes = %v", got)
	}
	if c := covered(spans[0], nil); c != 0 {
		t.Fatalf("covered with no children = %v", c)
	}
}

func TestMetricNamesValid(t *testing.T) {
	if err := validateMetrics(endToEnd, perLayer); err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]Metric{
		{{"_x", "s", "lower", 0}},
		{{strings.Repeat("a", 65), "s", "lower", 0}},
		{{"a b", "s", "lower", 0}},
		{{"x", "seconds per job", "lower", 0}},
		{{"x", "s", "faster", 0}},
		{{"x", "s", "lower", 0}, {"x", "ms", "lower", 0}},
	} {
		if validateMetrics(bad) == nil {
			t.Errorf("validateMetrics(%v) accepted an invalid list", bad)
		}
	}
	have := map[string]bool{}
	for _, m := range endToEnd {
		have[m.Name] = true
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !have["setup_s"] {
		t.Error("end-to-end metrics lack setup_s")
	}
}

// TestBenchmarkJSONMatchesRegistry keeps BENCHMARK.json (at the root of
// the repository) in step with the metrics and workloads the runner
// prints.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []Workload `json:"workloads"`
		EndToEnd   []Metric   `json:"end_to_end"`
		PerLayer   []Metric   `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end differs from the runner:\n%v\n%v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from the runner")
	}
	if !reflect.DeepEqual(spec.Workloads, workloads) {
		t.Errorf("BENCHMARK.json workloads differ from the runner:\n%v\n%v", spec.Workloads, workloads)
	}
	for _, w := range workloads {
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	for _, w := range workloads {
		if w.Name == "daemon_mixed" {
			continue
		}
		a, b := studyPanel(w.Name, 5, 2), studyPanel(w.Name, 5, 2)
		if len(a) == 0 || !reflect.DeepEqual(a, b) {
			t.Errorf("%s: panel not reproducible from its seed", w.Name)
		}
	}
	if reflect.DeepEqual(studyPanel("sweep_equation", 1, 2), studyPanel("sweep_equation", 2, 2)) {
		t.Error("sweep panel ignores the seed")
	}
	if !reflect.DeepEqual(daemonMix(9, 2), daemonMix(9, 2)) {
		t.Fatal("daemon mix not reproducible from its seed")
	}
	if reflect.DeepEqual(daemonMix(9, 0), daemonMix(9, 1)) {
		t.Fatal("every pass plays the same order")
	}
	for seed := int64(1); seed <= 50; seed++ {
		mix := daemonMix(seed, int(seed%3))
		fresh := map[int]int{}
		kinds := map[string]int{}
		for i, it := range mix {
			kinds[it.Kind]++
			if it.Ref >= i {
				t.Fatalf("seed %d: item %d refers forward to %d", seed, i, it.Ref)
			}
			switch it.Kind {
			case kindFresh:
				for c, req := range freshCatalog {
					if req == it.Req {
						fresh[c]++
					}
				}
			case kindYield:
				if mix[it.Ref].Kind != kindFresh || it.Req.Draws != yieldDraws {
					t.Fatalf("seed %d: yield item %d is not on a fresh study", seed, i)
				}
			case kindResubmit:
				if mix[it.Ref].Req != it.Req {
					t.Fatalf("seed %d: resubmission %d differs from its referent", seed, i)
				}
			}
			if _, err := it.Req.Options(); err != nil {
				t.Fatalf("seed %d item %d: %v", seed, i, err)
			}
		}
		for c := range freshCatalog {
			if fresh[c] != 1 {
				t.Fatalf("seed %d: catalog study %d submitted %d times", seed, c, fresh[c])
			}
		}
		if !reflect.DeepEqual(kinds, mixCounts) {
			t.Fatalf("seed %d: mix composition %v, want %v", seed, kinds, mixCounts)
		}
	}
}

func TestHistQuantile(t *testing.T) {
	bounds := []float64{1, 2, 4, math.Inf(1)}
	cum := []float64{10, 30, 40, 40}
	for q, want := range map[float64]float64{0.25: 1, 0.5: 1.5, 0.75: 2, 0.9: 3.2} {
		if got := histQuantile(bounds, cum, q); math.Abs(got-want) > 1e-12 {
			t.Errorf("q%v = %v, want %v", q, got, want)
		}
	}
}

// stripTimes zeroes the wall-clock leg costs, the only fields of a study
// that may differ between identical runs.
func stripTimes(st *core.Study) {
	zero := func(m *hybrid.Metrics) { m.DCTime, m.TFTime, m.TranTime = 0, 0, 0 }
	for i := range st.Candidates {
		for j := range st.Candidates[i].Stages {
			zero(&st.Candidates[i].Stages[j].Metrics)
		}
	}
	for j := range st.Best.Stages {
		zero(&st.Best.Stages[j].Metrics)
	}
	for _, m := range st.MDACs {
		zero(&m.Result.Metrics)
	}
}

func TestStudyIdenticalAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 13-bit study twice")
	}
	var studies []*core.Study
	for _, w := range []int{1, 2} {
		st, err := core.Optimize(context.Background(), study13Options("study13_fastpath", refPanel[0], w))
		if err != nil {
			t.Fatal(err)
		}
		stripTimes(st)
		studies = append(studies, st)
	}
	if !reflect.DeepEqual(studies[0], studies[1]) {
		t.Fatal("study differs between 1 and 2 workers")
	}
}

func TestDaemonMatchesDirect(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a hybrid study in the daemon and directly")
	}
	req := freshCatalog[0]
	d, err := bootDaemon(2)
	if err != nil {
		t.Fatal(err)
	}
	r := newRunner("daemon_mixed", 1, 1, 2)
	o := r.play(d, mixItem{Kind: kindFresh, Req: req, Ref: -1}, func() {})
	if err := d.close(); err != nil {
		t.Fatal(err)
	}
	if o.err != nil {
		t.Fatal(o.err)
	}
	if err := checkStudyJSON(o.status.Result, req, o.status.Evals); err != nil {
		t.Fatal(err)
	}
	opts, err := req.Options()
	if err != nil {
		t.Fatal(err)
	}
	opts.Workers = 2
	st, err := core.Optimize(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := o.status.Result.Best; configString(got.Config) != st.Best.Config.String() || got.TotalPowerW != st.Best.TotalPower {
		t.Fatalf("daemon winner %v %.9g W, direct %s %.9g W", got.Config, got.TotalPowerW, st.Best.Config, st.Best.TotalPower)
	}
	if o.points != len(st.MDACs) {
		t.Fatalf("event log reports %d design points, study has %d", o.points, len(st.MDACs))
	}
}

func TestChecksCatchBadOutput(t *testing.T) {
	opts := core.Options{Bits: 10, Mode: hybrid.EquationOnly, Workers: 2,
		Synth: synth.Options{Seed: 3, MaxEvals: 60, PatternIter: 20}}
	rec := newStudyRec(nil, false)
	opts.Progress = rec.progress
	st, err := core.Optimize(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkStudy(st, opts, rec.pointEvals()); err != nil {
		t.Fatalf("good study rejected: %v", err)
	}
	for name, corrupt := range map[string]func(*core.Study){
		"best not head":   func(s *core.Study) { s.Best = s.Candidates[len(s.Candidates)-1] },
		"dropped":         func(s *core.Study) { s.Candidates = s.Candidates[1:]; s.Best = s.Candidates[0] },
		"power mismatch":  func(s *core.Study) { s.Candidates[1].TotalPower *= 1.5 },
		"evals miscount":  func(s *core.Study) { s.TotalEvals++ },
		"duplicate":       func(s *core.Study) { s.Candidates[len(s.Candidates)-1] = s.Candidates[len(s.Candidates)-2] },
		"negative power":  func(s *core.Study) { s.Candidates[0].TotalPower = -1; s.Best = s.Candidates[0] },
		"ranking swapped": func(s *core.Study) { s.Candidates[1], s.Candidates[2] = s.Candidates[2], s.Candidates[1] },
	} {
		bad := *st
		bad.Candidates = append([]core.CandidateResult(nil), st.Candidates...)
		corrupt(&bad)
		if checkStudy(&bad, opts, rec.pointEvals()) == nil {
			t.Errorf("%s: corrupted study passed the checks", name)
		}
	}
	replay := *st
	replay.TotalEvals = 1
	if checkReplay(st, &replay) == nil {
		t.Error("a replay that spent evaluations passed")
	}
}

func TestRunPrintsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the equation sweep twice")
	}
	for _, trace := range []string{"0", "1"} {
		var out, errOut bytes.Buffer
		code := run([]string{"--workload", "sweep_equation", "--seed", "3", "--seconds", "0.01", "--trace", trace},
			&out, &errOut)
		if code != 0 {
			t.Fatalf("trace %s: exit %d: %s", trace, code, errOut.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res Result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		list := endToEnd
		if trace == "1" {
			list = perLayer
		}
		if !res.Correct || res.Attempted == 0 || res.Failed != 0 || len(res.Metrics) != len(list) {
			t.Fatalf("trace %s: result %+v", trace, res)
		}
		for _, m := range list {
			if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
				t.Fatalf("trace %s: metric %s missing or mis-united: %+v", trace, m.Name, got)
			}
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, &errOut); code == 0 || out.Len() != 0 {
		t.Fatalf("unknown workload: exit %d, output %q", code, out.String())
	}
}
