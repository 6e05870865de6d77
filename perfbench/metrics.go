package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
)

// Metric names one reported figure. Bound is the share of the parent
// commit's median by which an end-to-end metric may worsen; per-layer
// metrics carry no bound.
type Metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the flow sees. BENCHMARK.json mirrors this
// list (TestBenchmarkJSONMatchesRegistry keeps the two in step).
//
// Times carry the machine's noise: the same 13-bit study repeated in one
// process on the 2-core reference host varies by ~8%, and run medians
// drift by as much between minutes, so the time bounds are the widest
// allowed. The quality figures come from fixed reference panels and
// repeat exactly, so their bounds only allow a deliberate trade.
var endToEnd = []Metric{
	{"setup_s", "s", "lower", 0.25},
	{"study_s.p50", "s", "lower", 0.25},
	{"study_s.p90", "s", "lower", 0.25},
	{"winner_power_mW.p50", "mW", "lower", 0.10},
	{"winner_feasible_frac", "frac", "higher", 0.15},
	{"points_feasible_frac", "frac", "higher", 0.15},
	{"ok_frac", "frac", "higher", 0.01},
	{"alloc_MB_per_job", "MB", "lower", 0.10},
	{"job_s.p50", "s", "lower", 0.25},
	{"job_s.p90", "s", "lower", 0.25},
	{"jobs_per_s", "1/s", "higher", 0.25},
	{"replay_s.p50", "s", "lower", 0.25},
}

// selfLayers are the layers the traced run reports self time for.
var selfLayers = []string{"la_sim", "expr", "hybrid", "synth", "race", "sched", "core", "service", "yield"}

// perLayer is what one layer contributes. A layer a workload does not
// exercise reports 0.
var perLayer = func() []Metric {
	ms := []Metric{
		{"la.factorizations_per_eval", "count", "lower", 0},
		{"la.ordered_fallbacks", "count", "lower", 0},
		{"sim.reused_solves_per_eval", "count", "higher", 0},
		{"sim.reuse_fallbacks", "count", "lower", 0},
		{"sim.batch_width_mean", "count", "higher", 0},
		{"sim.tran_s", "s", "lower", 0},
		{"sim.op_s", "s", "lower", 0},
		{"sim.ac_s", "s", "lower", 0},
		{"hybrid.eval_s.p50", "s", "lower", 0},
		{"hybrid.eval_s.p99", "s", "lower", 0},
		{"hybrid.dc_s", "s", "lower", 0},
		{"hybrid.tf_s", "s", "lower", 0},
		{"hybrid.tran_s", "s", "lower", 0},
		{"expr.compile_s", "s", "lower", 0},
		{"synth.point_s.p50", "s", "lower", 0},
		{"synth.self_s", "s", "lower", 0},
		{"synth.evals_per_study", "count", "lower", 0},
		{"synth.evals_to_feasible.p50", "count", "lower", 0},
		{"race.pruned", "count", "higher", 0},
		{"race.promotions", "count", "lower", 0},
		{"race.evals_saved_frac", "frac", "higher", 0},
		{"sched.busy_frac", "frac", "higher", 0},
		{"sched.queue_wait_s.p50", "s", "lower", 0},
		{"core.self_s", "s", "lower", 0},
		{"core.alloc_MB_per_study", "MB", "lower", 0},
		{"core.winner_m1_4_frac", "frac", "higher", 0},
		{"heap_peak_MB", "MB", "lower", 0},
		{"service.submit_s.p50", "s", "lower", 0},
		{"service.submit_s.p99", "s", "lower", 0},
		{"service.queue_wait_s.p50", "s", "lower", 0},
		{"service.run_s.p50", "s", "lower", 0},
		{"service.dedup_frac", "frac", "higher", 0},
		{"service.refused", "count", "lower", 0},
		{"service.journal_bytes_per_job", "bytes", "lower", 0},
		{"synth.cache_hit_frac", "frac", "higher", 0},
		{"yield.draw_s.p50", "s", "lower", 0},
		{"yield.draws_per_s", "1/s", "higher", 0},
	}
	for _, l := range selfLayers {
		ms = append(ms, Metric{"self_s." + l, "s", "lower", 0})
	}
	return append(ms,
		Metric{"trace.spans", "count", "lower", 0},
		Metric{"trace.overhead_frac", "frac", "lower", 0},
		Metric{"trace.study_s.p50", "s", "lower", 0})
}()

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validateMetrics checks names and units against the benchmark format
// and that no name is used twice.
func validateMetrics(lists ...[]Metric) error {
	seen := map[string]bool{}
	for _, list := range lists {
		for _, m := range list {
			if !nameRE.MatchString(m.Name) {
				return fmt.Errorf("metric name %q is not valid", m.Name)
			}
			if !unitRE.MatchString(m.Unit) {
				return fmt.Errorf("metric %s: unit %q is not valid", m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				return fmt.Errorf("metric %s: better %q", m.Name, m.Better)
			}
			if seen[m.Name] {
				return fmt.Errorf("metric name %q used twice", m.Name)
			}
			seen[m.Name] = true
		}
	}
	return nil
}

// quantile is the linear-interpolation quantile (q in [0,1]) of the
// values; 0 for no values.
func quantile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(values []float64) float64 { return quantile(values, 0.5) }

func sum(values []float64) float64 {
	t := 0.0
	for _, v := range values {
		t += v
	}
	return t
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the last line the runner prints.
type Result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// writeResult prints every metric of the list (human-readable, one per
// line, with its note such as a sample count) and then the result object
// as the final line. A metric the run did not produce is an error, not a
// silent zero.
func writeResult(w io.Writer, list []Metric, values map[string]float64, notes map[string]string, attempted, failed int) error {
	res := Result{Correct: failed == 0, Attempted: attempted, Failed: failed,
		Metrics: make(map[string]metricValue, len(list))}
	for _, m := range list {
		v, ok := values[m.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", m.Name, v)
		}
		fmt.Fprintf(w, "%-32s %14.6g %-6s %s\n", m.Name, v, m.Unit, notes[m.Name])
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	blob, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", blob)
	return err
}
