// End-to-end kernel benchmarks on an MDAC-sized circuit: the hold and
// loop netlists of a real pipeline stage (the same circuits the hybrid
// evaluator solves on every synthesis iteration). These are the numbers
// the allocation-free kernel path is accountable to; `make bench` runs
// them together with the per-package kernel benchmarks and writes
// BENCH_kernels.json.
package pipesyn_test

import (
	"context"
	"runtime"
	"testing"

	"pipesyn/internal/core"
	"pipesyn/internal/enum"
	"pipesyn/internal/hybrid"
	"pipesyn/internal/mdac"
	"pipesyn/internal/netlist"
	"pipesyn/internal/opamp"
	"pipesyn/internal/pdk"
	"pipesyn/internal/sim"
	"pipesyn/internal/stagespec"
	"pipesyn/internal/synth"
)

// benchStage builds a representative second-stage MDAC of a 12-bit
// 40 MSPS pipeline with the designer-equation initial sizing.
func benchStage(b *testing.B) mdac.Stage {
	b.Helper()
	proc := pdk.TSMC025()
	adc := stagespec.ADCSpec{Bits: 12, SampleRate: 40e6, VRef: 1}
	specs, err := stagespec.Translate(adc, enum.Config{3, 2, 2, 2, 2})
	if err != nil {
		b.Fatal(err)
	}
	sp := specs[1]
	sz := opamp.InitialSizing(proc, opamp.BlockSpec{
		GBW: sp.GBWMin, SR: sp.SRMin, CLoad: sp.CLoad, CFeed: sp.CFeed,
		Gain: sp.GainMin, Swing: sp.SwingMin,
	})
	return mdac.Stage{Spec: sp, Sizing: sz, Process: proc}
}

func benchHold(b *testing.B) *netlist.Circuit {
	b.Helper()
	hold, err := benchStage(b).HoldCircuit()
	if err != nil {
		b.Fatal(err)
	}
	return hold
}

// BenchmarkOP is the DC-Newton leg: operating point of the closed-loop
// hold circuit (gmin ladder and source stepping included when needed).
func BenchmarkOP(b *testing.B) {
	hold := benchHold(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.OP(hold, sim.DCOpts{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTranSettle is the transient leg: the worst-case residue step
// over the same settling window the hybrid evaluator uses, on the
// symbolic-factorization + modified-Newton (Shamanskii) solver path.
func BenchmarkTranSettle(b *testing.B) {
	st := benchStage(b)
	hold := benchHold(b)
	window := st.Spec.TSlew + st.Spec.TSettle
	opts := sim.TranOpts{
		TStop:       mdac.StepDelay + 1.5*window,
		TStep:       window / 400,
		NewtonReuse: true,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Tran(hold, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTranSettleFullNewton is the same transient on the default
// full-Newton path (factor every iteration; bit-identical to the
// historical dense solver).
func BenchmarkTranSettleFullNewton(b *testing.B) {
	st := benchStage(b)
	hold := benchHold(b)
	window := st.Spec.TSlew + st.Spec.TSettle
	opts := sim.TranOpts{
		TStop: mdac.StepDelay + 1.5*window,
		TStep: window / 400,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Tran(hold, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStudy13b is the full-study number the batched kernel path is
// accountable to: a 13-bit designer-driven study on a tiny evaluation
// budget with the annealer's batched moves (BatchEval) and the
// reuse-Newton solver both enabled — every hot path this package's
// kernel benchmarks measure in isolation, composed end to end.
func BenchmarkStudy13b(b *testing.B) {
	opts := core.Options{
		Bits: 13, SampleRate: 40e6, Mode: hybrid.Hybrid,
		Synth: synth.Options{
			Seed: 7, MaxEvals: 12, PatternIter: 6,
			BatchEval: 4, NewtonReuse: true,
		},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Optimize(context.Background(), opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepEquation is the search-layer number: a 10–13-bit
// EquationOnly sweep (two restarts per synthesis, seed 1, one worker),
// where each evaluation is a closed-form formula and the annealer,
// pattern search, spec audit and study bookkeeping around it set the
// cost. allocs/eval counts heap allocations per evaluator call across
// the whole sweep; mW_best is the 13-bit winner's power, so a speed-up
// that changed the answer shows.
func BenchmarkSweepEquation(b *testing.B) {
	opts := core.Options{Mode: hybrid.EquationOnly, Workers: 1,
		Synth: synth.Options{Seed: 1, Restarts: 2}}
	bits := []int{10, 11, 12, 13}
	b.ReportAllocs()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	b.ResetTimer()
	var studies []*core.Study
	evals := 0
	for i := 0; i < b.N; i++ {
		var err error
		if studies, err = core.Sweep(context.Background(), bits, opts); err != nil {
			b.Fatal(err)
		}
		for _, st := range studies {
			evals += st.TotalEvals
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms1)
	b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/float64(evals), "allocs/eval")
	b.ReportMetric(studies[len(studies)-1].Best.TotalPower*1e3, "mW_best")
}

// BenchmarkStudy13bRacing is BenchmarkStudy13b under the
// successive-halving racing scheduler: the wall-clock and
// evals-to-feasible numbers the racing search path is accountable to.
// "cold" starts from nothing; "warm" replays through a primed
// content-addressed cache (the daemon's steady state).
func BenchmarkStudy13bRacing(b *testing.B) {
	mk := func() core.Options {
		return core.Options{
			Bits: 13, SampleRate: 40e6, Mode: hybrid.Hybrid, Race: true,
			Synth: synth.Options{
				Seed: 7, MaxEvals: 12, PatternIter: 6,
				BatchEval: 4, NewtonReuse: true,
			},
		}
	}
	report := func(b *testing.B, st *core.Study) {
		b.ReportMetric(float64(st.TotalEvals), "evals/study")
		toFeasible := 0
		for _, m := range st.MDACs {
			toFeasible += m.Result.EvalsToFeasible
		}
		b.ReportMetric(float64(toFeasible), "evalsToFeasible/study")
	}
	b.Run("cold", func(b *testing.B) {
		var st *core.Study
		for i := 0; i < b.N; i++ {
			var err error
			if st, err = core.Optimize(context.Background(), mk()); err != nil {
				b.Fatal(err)
			}
		}
		report(b, st)
	})
	b.Run("warm", func(b *testing.B) {
		cache, err := synth.NewCache(0, "")
		if err != nil {
			b.Fatal(err)
		}
		prime := mk()
		prime.Synth.Cache = cache
		if _, err := core.Optimize(context.Background(), prime); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		var st *core.Study
		for i := 0; i < b.N; i++ {
			o := mk()
			o.Synth.Cache = cache
			if st, err = core.Optimize(context.Background(), o); err != nil {
				b.Fatal(err)
			}
		}
		report(b, st)
		b.ReportMetric(float64(st.CacheHits), "cacheHits/study")
	})
}

// BenchmarkACSweep is the swept small-signal leg (the SimOnly
// transfer-function path): 40 points/decade over 1 kHz – 100 GHz on the
// broken-loop netlist.
func BenchmarkACSweep(b *testing.B) {
	st := benchStage(b)
	loop, err := st.LoopCircuit(1e-15)
	if err != nil {
		b.Fatal(err)
	}
	op, err := sim.OP(loop, sim.DCOpts{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.AC(loop, op, sim.ACOpts{FStart: 1e3, FStop: 100e9, PointsPerDecade: 40}); err != nil {
			b.Fatal(err)
		}
	}
}
