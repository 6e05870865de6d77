package main

import (
	"context"
	"fmt"
	"time"

	"pipesyn/internal/core"
	"pipesyn/internal/enum"
	"pipesyn/internal/hybrid"
	"pipesyn/internal/mdac"
	"pipesyn/internal/opamp"
	"pipesyn/internal/sim"
	"pipesyn/internal/stagespec"
	"pipesyn/internal/yield"
)

// yieldProbeDraws is how many Monte-Carlo draws a traced daemon run
// times one by one.
const yieldProbeDraws = 16

// probeStudy times the layers under the evaluator on every design point
// of a finished study, outside the study's own span: the simulator's
// OP, Tran and AC on the point's hold and loop circuits, the symbolic
// transfer-function compile, and the evaluator's three legs. The probes
// run with the study's evaluator mode and Newton setting, so they time
// the code the study ran. An equation-only study runs none of these
// layers and is not probed: they report 0 for it.
func (r *runner) probeStudy(in studyInput, st *core.Study) {
	opts := in.Opts.WithDefaults()
	if opts.Mode == hybrid.EquationOnly {
		return
	}
	specs, err := designPointSpecs(opts)
	if err != nil {
		r.op(in.ID+" probe", err)
		return
	}
	root := r.tr.Add(Span{Name: "probe", Layer: "probe", Owner: in.ID, Start: r.tr.Since(time.Now())})
	for _, m := range st.MDACs {
		sp, ok := specs[m.Key]
		if !ok {
			r.op(in.ID+" probe", fmt.Errorf("no spec for design point %+v", m.Key))
			return
		}
		owner := fmt.Sprintf("%s/stage%d-%db", in.ID, m.Key.Stage, m.Key.Bits)
		r.op(owner+" probe", r.probePoint(root, owner, sp, opts, m.Result.Sizing))
	}
	r.tr.Close(root, time.Now())
}

// designPointSpecs maps every design point of the study to the block
// spec core.Optimize synthesized it against.
func designPointSpecs(opts core.Options) (map[core.DesignPoint]stagespec.MDACSpec, error) {
	cands, err := enum.Candidates(opts.Bits, opts.Constraints)
	if err != nil {
		return nil, err
	}
	adc := stagespec.ADCSpec{Bits: opts.Bits, SampleRate: opts.SampleRate, VRef: opts.VRef, Process: opts.Process}
	out := map[core.DesignPoint]stagespec.MDACSpec{}
	for _, c := range cands {
		specs, err := stagespec.Translate(adc, c)
		if err != nil {
			return nil, err
		}
		for _, sp := range specs {
			out[core.DesignPoint{Stage: sp.Stage, Bits: sp.Bits, PriorBits: sp.PriorBits}] = sp
		}
	}
	return out, nil
}

// probePoint runs the probe calls on one design point.
func (r *runner) probePoint(parent int, owner string, spec stagespec.MDACSpec, opts core.Options, sizing opamp.Amp) error {
	tr := r.tr
	proc, reuse := opts.Process, opts.Synth.NewtonReuse
	st := mdac.Stage{Spec: spec, Sizing: sizing, Process: proc}
	hold, err := st.HoldCircuit()
	if err != nil {
		return err
	}
	timed := func(name, layer, sample string, f func() error) error {
		t0 := time.Now()
		err := f()
		t1 := time.Now()
		tr.AddAt(parent, name, layer, owner, t0, t1)
		if sample != "" && err == nil {
			r.add(sample, t1.Sub(t0).Seconds())
		}
		return err
	}
	var op *sim.DCResult
	if err := timed("sim.OP", "la_sim", "sim.op_s", func() (err error) {
		op, err = sim.OP(hold, sim.DCOpts{NewtonReuse: reuse})
		return err
	}); err != nil {
		return fmt.Errorf("OP: %w", err)
	}
	window := spec.TSlew + spec.TSettle
	if err := timed("sim.Tran", "la_sim", "sim.tran_s", func() error {
		_, err := sim.Tran(hold, sim.TranOpts{TStop: mdac.StepDelay + 1.5*window, TStep: window / 400, NewtonReuse: reuse})
		return err
	}); err != nil {
		return fmt.Errorf("Tran: %w", err)
	}
	loop, err := st.LoopCircuit(op.MOS[mdac.AmpPrefix+"m1"].CGS)
	if err != nil {
		return err
	}
	if err := timed("sim.AC", "la_sim", "sim.ac_s", func() error {
		_, err := sim.AC(loop, op, sim.ACOpts{FStart: 1e3, FStop: 100e9, PointsPerDecade: 40})
		return err
	}); err != nil {
		return fmt.Errorf("AC: %w", err)
	}

	// A fresh evaluator compiles the loop transfer function on its first
	// call; the second call is steady. The difference is the compile.
	se := hybrid.NewStageEvaluator(spec, proc, opts.Mode)
	se.NewtonReuse = reuse
	t0 := time.Now()
	if _, err := se.Evaluate(context.Background(), sizing); err != nil {
		return fmt.Errorf("first evaluation: %w", err)
	}
	t1 := time.Now()
	m, err := se.Evaluate(context.Background(), sizing)
	if err != nil {
		return fmt.Errorf("steady evaluation: %w", err)
	}
	t2 := time.Now()
	compile := max(t1.Sub(t0)-t2.Sub(t1), 0)
	first := tr.AddAt(parent, "hybrid.Evaluate", "hybrid", owner, t0, t1)
	tr.AddAt(first, "expr.compile", "expr", owner, t0, t0.Add(compile))
	tr.AddAt(parent, "hybrid.Evaluate", "hybrid", owner, t1, t2)
	r.add("expr.compile_s", compile.Seconds())
	r.add("hybrid.dc_s", m.DCTime.Seconds())
	r.add("hybrid.tf_s", m.TFTime.Seconds())
	r.add("hybrid.tran_s", m.TranTime.Seconds())
	return nil
}

// probeYield times single Monte-Carlo draws of a studied design.
func (r *runner) probeYield(parent int, owner string, st *core.Study, opts core.Options) error {
	model, err := yield.FromStudy(st, opts, yield.Spec{})
	if err != nil {
		return err
	}
	key := core.StudyKey(opts)
	for i := 0; i < yieldProbeDraws; i++ {
		t0 := time.Now()
		if _, err := model.RunDraw(yield.DrawSeed(key, i), yield.Spec{}); err != nil {
			return err
		}
		t1 := time.Now()
		r.tr.AddAt(parent, "yield.RunDraw", "yield", owner, t0, t1)
		r.add("yield.draw_s", t1.Sub(t0).Seconds())
	}
	return nil
}
