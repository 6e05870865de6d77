package hybrid

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"pipesyn/internal/dpi"
	"pipesyn/internal/enum"
	"pipesyn/internal/mdac"
	"pipesyn/internal/opamp"
	"pipesyn/internal/pdk"
	"pipesyn/internal/sim"
	"pipesyn/internal/stagespec"
)

// relaxedStage returns a late-pipeline stage whose initial sizing is
// likely near-feasible, for fast integration tests.
func relaxedStage(t testing.TB) mdac.Stage {
	t.Helper()
	adc := stagespec.ADCSpec{Bits: 10, SampleRate: 40e6, VRef: 1}
	specs, err := stagespec.Translate(adc, enum.Config{3, 2, 2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	sp := specs[1]
	p := pdk.TSMC025()
	sz := opamp.InitialSizing(p, opamp.BlockSpec{
		GBW: sp.GBWMin, SR: sp.SRMin, CLoad: sp.CLoad, CFeed: sp.CFeed,
		Gain: sp.GainMin, Swing: sp.SwingMin,
	})
	return mdac.Stage{Spec: sp, Sizing: sz, Process: p}
}

func TestHybridEvaluation(t *testing.T) {
	st := relaxedStage(t)
	m, err := Evaluate(context.Background(), st, Hybrid)
	if err != nil {
		t.Fatal(err)
	}
	if m.Power <= 0 {
		t.Fatalf("power = %g", m.Power)
	}
	if m.AmpGain < 100 {
		t.Fatalf("amp gain = %g, implausibly low for a two-stage OTA", m.AmpGain)
	}
	if m.CrossoverHz <= 0 {
		t.Fatalf("no crossover found")
	}
	if m.PhaseMargin <= 0 || m.PhaseMargin >= 180 {
		t.Fatalf("PM = %g out of range", m.PhaseMargin)
	}
	if m.SettleTime <= 0 {
		t.Fatalf("settle time = %g", m.SettleTime)
	}
	if m.SwingHi <= m.SwingLo {
		t.Fatalf("swing window inverted: [%g, %g]", m.SwingLo, m.SwingHi)
	}
}

// The central claim of the hybrid method: its linear metrics agree with
// full (swept AC) simulation because both come from the same extracted
// small-signal reality.
func TestHybridMatchesSimOnly(t *testing.T) {
	st := relaxedStage(t)
	hy, err := Evaluate(context.Background(), st, Hybrid)
	if err != nil {
		t.Fatal(err)
	}
	so, err := Evaluate(context.Background(), st, SimOnly)
	if err != nil {
		t.Fatal(err)
	}
	relDiff := func(a, b float64) float64 {
		return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
	}
	if relDiff(hy.LoopGain0, so.LoopGain0) > 0.02 {
		t.Fatalf("loop gain: hybrid %g vs sim %g", hy.LoopGain0, so.LoopGain0)
	}
	if relDiff(hy.CrossoverHz, so.CrossoverHz) > 0.05 {
		t.Fatalf("crossover: hybrid %g vs sim %g", hy.CrossoverHz, so.CrossoverHz)
	}
	if math.Abs(hy.PhaseMargin-so.PhaseMargin) > 3 {
		t.Fatalf("PM: hybrid %g vs sim %g", hy.PhaseMargin, so.PhaseMargin)
	}
	// Power and settling come from identical legs, so they must agree
	// almost exactly.
	if relDiff(hy.Power, so.Power) > 1e-9 {
		t.Fatalf("power mismatch: %g vs %g", hy.Power, so.Power)
	}
}

// The equation-only path should be in the right ballpark (it is the
// designer's model, not reality) — within a factor of ~3 on gain and
// crossover for a near-textbook sizing.
func TestEquationOnlyBallpark(t *testing.T) {
	st := relaxedStage(t)
	eq, err := Evaluate(context.Background(), st, EquationOnly)
	if err != nil {
		t.Fatal(err)
	}
	hy, err := Evaluate(context.Background(), st, Hybrid)
	if err != nil {
		t.Fatal(err)
	}
	ratio := func(a, b float64) float64 {
		if a < b {
			a, b = b, a
		}
		return a / b
	}
	if r := ratio(eq.AmpGain, hy.AmpGain); r > 4 {
		t.Fatalf("equation gain %g vs hybrid %g: ratio %g", eq.AmpGain, hy.AmpGain, r)
	}
	if r := ratio(eq.CrossoverHz, hy.CrossoverHz); r > 4 {
		t.Fatalf("equation crossover %g vs hybrid %g: ratio %g", eq.CrossoverHz, hy.CrossoverHz, r)
	}
	if r := ratio(eq.Power, hy.Power); r > 2 {
		t.Fatalf("equation power %g vs hybrid %g", eq.Power, hy.Power)
	}
}

func TestCheckAudit(t *testing.T) {
	st := relaxedStage(t)
	specs := SpecsFor(st)
	good := Metrics{
		AmpGain: specs.GainMin * 2, CrossoverHz: specs.CrossoverMin * 2,
		PhaseMargin: 70, StaticError: specs.StaticErrMax / 2,
		SettleTime: specs.SettleTimeMax / 2, Settled: true,
		SwingLo: specs.SwingLoMax - 0.1, SwingHi: specs.SwingHiMin + 0.1,
		AllSaturated: true,
	}
	if r := Check(specs, good); r.Violations != 0 {
		t.Fatalf("good metrics flagged: %v", r.Failures)
	}
	bad := good
	bad.AmpGain = specs.GainMin / 10
	bad.Settled = false
	bad.AllSaturated = false
	r := Check(specs, bad)
	if r.Violations <= 0 || len(r.Failures) < 3 {
		t.Fatalf("bad metrics not flagged: %+v", r)
	}

	// A candidate missing every requirement: SpecReport lands in study
	// JSON and the synthesis cache, so its exact sum and lines are
	// pinned.
	worst := Metrics{
		AmpGain: specs.GainMin / 4, CrossoverHz: specs.CrossoverMin / 3,
		PhaseMargin: 41.25, StaticError: specs.StaticErrMax * 3,
		SettleTime: specs.SettleTimeMax * 1.5, Settled: false,
		SwingLo: specs.SwingLoMax + 0.125, SwingHi: specs.SwingHiMin - 0.25,
		AllSaturated: false,
	}
	want := []string{
		"gain 128 < required 512",
		"crossover 2.75e+07 < required 8.24e+07",
		"PM 41.2° < required 60.0°",
		"static error 0.012 > budget 0.0039",
		"did not settle in window",
		"settle 1.87e-08 > window 1.25e-08",
		"swing floor 1.02 above 0.90",
		"swing ceiling 1.65 below 1.90",
		"device out of saturation",
	}
	r = Check(specs, worst)
	if got := math.Float64bits(r.Violations); got != 0x4017155555555556 {
		t.Errorf("violations %#x (%g), want 0x4017155555555556", got, r.Violations)
	}
	if !reflect.DeepEqual(r.Failures, want) {
		t.Errorf("failures\n  %q\nwant\n  %q", r.Failures, want)
	}
}

// TestViolationsMatchesCheck: the allocation-free violation sum must
// equal Check's bit for bit, and Check must list a failure exactly when
// that sum is nonzero — over random metrics around the thresholds and
// the edge cases: NaN, ±Inf, values exactly at a threshold, an inverted
// swing window, and non-positive thresholds.
func TestViolationsMatchesCheck(t *testing.T) {
	base := SpecsFor(relaxedStage(t))
	rng := rand.New(rand.NewSource(4))
	edge := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), -1}
	// pick draws a metric value near limit: often exactly on it, often
	// an edge value, otherwise a random multiple of it.
	pick := func(limit float64) float64 {
		switch r := rng.Intn(8); {
		case r == 0:
			return limit
		case r == 1:
			return math.Nextafter(limit, math.Inf(2*rng.Intn(2)-1))
		case r == 2:
			return edge[rng.Intn(len(edge))]
		default:
			return limit * math.Exp(rng.NormFloat64())
		}
	}
	for i := 0; i < 20000; i++ {
		sp := base
		if i%4 == 0 {
			// Perturbed thresholds, including zero, negative and
			// non-finite ones, and an inverted (lo above hi) window.
			for _, f := range []*float64{&sp.GainMin, &sp.CrossoverMin, &sp.PMMin,
				&sp.StaticErrMax, &sp.SettleTimeMax, &sp.SwingLoMax, &sp.SwingHiMin} {
				*f = pick(*f)
			}
		}
		m := Metrics{
			AmpGain: pick(sp.GainMin), CrossoverHz: pick(sp.CrossoverMin),
			PhaseMargin: pick(sp.PMMin), StaticError: pick(sp.StaticErrMax),
			SettleTime: pick(sp.SettleTimeMax), Settled: rng.Intn(2) == 0,
			SwingLo: pick(sp.SwingLoMax), SwingHi: pick(sp.SwingHiMin),
			AllSaturated: rng.Intn(2) == 0,
		}
		if i%7 == 0 {
			m.SwingLo, m.SwingHi = sp.SwingHiMin+0.1, sp.SwingLoMax-0.1 // inverted swing
		}
		r := Check(sp, m)
		v := Violations(sp, m)
		if math.Float64bits(v) != math.Float64bits(r.Violations) {
			t.Fatalf("case %d: Violations %v, Check %v\nspecs %+v\nmetrics %+v", i, v, r.Violations, sp, m)
		}
		if (len(r.Failures) == 0) != (v == 0) {
			t.Fatalf("case %d: sum %v with failures %q\nspecs %+v\nmetrics %+v", i, v, r.Failures, sp, m)
		}
	}
}

// TestSweepProgramWarmAllocs: once an evaluator has compiled its loop
// transfer function and sized its sweep buffers, a transfer-function
// sweep allocates nothing.
func TestSweepProgramWarmAllocs(t *testing.T) {
	st := relaxedStage(t)
	se := NewStageEvaluator(st.Spec, st.Process, Hybrid)
	if err := se.compileLoopTF(st.Sizing); err != nil {
		t.Fatal(err)
	}
	hold, err := st.HoldCircuit()
	if err != nil {
		t.Fatal(err)
	}
	op, err := sim.OP(hold, sim.DCOpts{})
	if err != nil {
		t.Fatal(err)
	}
	loop, err := st.LoopCircuit(op.MOS[mdac.AmpPrefix+"m1"].CGS)
	if err != nil {
		t.Fatal(err)
	}
	env, err := dpi.Env(loop, op, dpi.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := se.loopMetrics(env); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := se.loopMetrics(env); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm loop-metrics sweep allocates %v times per call", allocs)
	}
}

func TestModeString(t *testing.T) {
	if Hybrid.String() != "hybrid" || EquationOnly.String() != "equation" || SimOnly.String() != "simulation" {
		t.Fatal("mode strings")
	}
	if _, err := Evaluate(context.Background(), relaxedStage(t), Mode(99)); err == nil {
		t.Fatal("expected unknown-mode error")
	}
}

func TestSettleTimeMeasurement(t *testing.T) {
	// Synthetic waveform: steps at t=1, exponentially approaches 2.0.
	tr := synthTran()
	st, ok, err := SettleTime(tr, "out", 1.0, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("should settle")
	}
	// exp(-t/0.5) < 0.02/1.0 → t > 0.5·ln50 ≈ 1.96.
	if st < 1.5 || st > 2.5 {
		t.Fatalf("settle time = %g, want ≈2", st)
	}
	// Impossible band: never settles.
	_, ok, err = SettleTime(tr, "out", 1.0, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("should not settle to 1e-12")
	}
	if _, _, err := SettleTime(tr, "ghost", 0, 1); err == nil {
		t.Fatal("expected unknown-node error")
	}
}

func synthTran() *sim.TranResult {
	n := 500
	tr := &sim.TranResult{V: map[string][]float64{}}
	for i := 0; i < n; i++ {
		tt := float64(i) * 0.01
		v := 1.0
		if tt >= 1 {
			v = 2 - math.Exp(-(tt-1)/0.5)
		}
		tr.T = append(tr.T, tt)
		tr.V["out"] = append(tr.V["out"], v)
	}
	return tr
}

// TestEvaluateBatchMatchesSerial: the batch width is a pure throughput
// knob — every metric must be bitwise identical to a one-candidate
// Evaluate of the same sizing, with the full-Newton solver and with
// NewtonReuse (the StageEvaluator doc promises both).
func TestEvaluateBatchMatchesSerial(t *testing.T) {
	st := relaxedStage(t)
	base := st.Sizing.AppendVector(nil)
	sizings := make([]opamp.Amp, 4)
	for i := range sizings {
		v := append([]float64(nil), base...)
		for j := range v {
			v[j] *= 1 + 0.05*float64(i)*float64(j%3)
		}
		sz, err := st.Sizing.WithVector(v, st.Process)
		if err != nil {
			t.Fatal(err)
		}
		sizings[i] = sz
	}
	for _, reuse := range []bool{false, true} {
		se := NewStageEvaluator(st.Spec, st.Process, Hybrid)
		se.NewtonReuse = reuse
		batchM := make([]Metrics, len(sizings))
		batchE := make([]error, len(sizings))
		se.EvaluateBatch(context.Background(), sizings, batchM, batchE)
		// Fresh evaluator for the serial pass so the TF cache state matches.
		se2 := NewStageEvaluator(st.Spec, st.Process, Hybrid)
		se2.NewtonReuse = reuse
		for i, sz := range sizings {
			serial, err := se2.Evaluate(context.Background(), sz)
			if batchE[i] != nil || err != nil {
				if (batchE[i] == nil) != (err == nil) {
					t.Fatalf("reuse=%v cand %d: batch err %v, serial err %v", reuse, i, batchE[i], err)
				}
				continue
			}
			b := batchM[i]
			pairs := [][2]float64{
				{b.Power, serial.Power}, {b.LoopGain0, serial.LoopGain0},
				{b.AmpGain, serial.AmpGain}, {b.CrossoverHz, serial.CrossoverHz},
				{b.PhaseMargin, serial.PhaseMargin}, {b.StaticError, serial.StaticError},
				{b.SettleTime, serial.SettleTime},
				{b.SwingLo, serial.SwingLo}, {b.SwingHi, serial.SwingHi},
			}
			for k, p := range pairs {
				if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
					t.Fatalf("reuse=%v cand %d metric %d: batch %.17g vs serial %.17g", reuse, i, k, p[0], p[1])
				}
			}
			if b.Settled != serial.Settled || b.AllSaturated != serial.AllSaturated {
				t.Fatalf("reuse=%v cand %d: boolean metrics diverge", reuse, i)
			}
		}
	}
}

// TestEvaluateBatchEquationMode: the batch entry point must work for the
// equation-only evaluator too (closed-form loop underneath).
func TestEvaluateBatchEquationMode(t *testing.T) {
	st := relaxedStage(t)
	se := NewStageEvaluator(st.Spec, st.Process, EquationOnly)
	ms, errs := make([]Metrics, 2), make([]error, 2)
	se.EvaluateBatch(context.Background(), []opamp.Amp{st.Sizing, st.Sizing}, ms, errs)
	for i := range ms {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if ms[i].Power <= 0 {
			t.Fatalf("cand %d: power %g", i, ms[i].Power)
		}
	}
}

// TestEvaluateBatchUnbindableCandidates: candidates that cannot share one
// kernel (here two amplifier cells, so the hold circuits differ in
// structure) are each scored as their own width-1 batch, with the same
// metrics as evaluating them one at a time.
func TestEvaluateBatchUnbindableCandidates(t *testing.T) {
	st := relaxedStage(t)
	tele, err := opamp.Initial(opamp.Telescopic, st.Process, opamp.BlockSpec{
		GBW: st.Spec.GBWMin, SR: st.Spec.SRMin, CLoad: st.Spec.CLoad, CFeed: st.Spec.CFeed,
		Gain: st.Spec.GainMin, Swing: st.Spec.SwingMin,
	})
	if err != nil {
		t.Fatal(err)
	}
	// SimOnly: the loop transfer function comes from an AC sweep, not
	// from the per-topology compiled program, so mixing cells is valid.
	sizings := []opamp.Amp{st.Sizing, tele}
	se := NewStageEvaluator(st.Spec, st.Process, SimOnly)
	ms, errs := make([]Metrics, 2), make([]error, 2)
	se.EvaluateBatch(context.Background(), sizings, ms, errs)
	for i, sz := range sizings {
		want, err := NewStageEvaluator(st.Spec, st.Process, SimOnly).Evaluate(context.Background(), sz)
		if errs[i] != nil || err != nil {
			t.Fatalf("cand %d: batch err %v, alone err %v", i, errs[i], err)
		}
		if math.Float64bits(ms[i].Power) != math.Float64bits(want.Power) ||
			math.Float64bits(ms[i].SettleTime) != math.Float64bits(want.SettleTime) ||
			math.Float64bits(ms[i].CrossoverHz) != math.Float64bits(want.CrossoverHz) {
			t.Fatalf("cand %d: batch %+v vs alone %+v", i, ms[i], want)
		}
	}
}
