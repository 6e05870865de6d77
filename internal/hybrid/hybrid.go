// Package hybrid implements the paper's block-level evaluation flow (§3):
// every synthesis candidate is scored by
//
//  1. a DC simulation of the closed-loop MDAC to bias the amplifier and
//     extract small-signal parameters (simulation, trustworthy bias),
//  2. a numerical transfer function — the DPI/SFG symbolic loop gain with
//     the extracted values bound — for gain, crossover and phase margin
//     (equation-fast, simulation-accurate for linear behaviour), and
//  3. a transient simulation of the worst-case residue step for the
//     large-swing settling behaviour that linear models cannot capture.
//
// Two alternative evaluators bracket the hybrid: EquationOnly uses the
// closed-form textbook expressions end to end (the style of [Hershenson,
// ICCAD'02]), and SimOnly replaces the symbolic transfer function with a
// swept AC analysis. Benchmarks over the three modes reproduce the paper's
// speed/accuracy argument.
package hybrid

import (
	"context"
	"fmt"
	"math"

	"time"

	"pipesyn/internal/device"
	"pipesyn/internal/dpi"
	"pipesyn/internal/expr"
	"pipesyn/internal/mdac"
	"pipesyn/internal/netlist"
	"pipesyn/internal/opamp"
	"pipesyn/internal/pdk"
	"pipesyn/internal/sim"
	"pipesyn/internal/stagespec"
)

// Mode selects the evaluation strategy.
type Mode int

const (
	Hybrid Mode = iota
	EquationOnly
	SimOnly
)

func (m Mode) String() string {
	switch m {
	case Hybrid:
		return "hybrid"
	case EquationOnly:
		return "equation"
	case SimOnly:
		return "simulation"
	}
	return "?"
}

// Metrics is the outcome of evaluating one MDAC sizing candidate.
type Metrics struct {
	Mode Mode

	Power float64 // static supply power, W

	LoopGain0   float64 // T(0), loop gain at DC
	AmpGain     float64 // A0 = T(0)/β
	CrossoverHz float64 // loop unity-gain frequency
	PhaseMargin float64 // degrees
	StaticError float64 // closed-loop static gain error ≈ 1/T(0)

	SettleTime float64 // measured settling time from the step, s
	Settled    bool    // reached the tolerance band within the window

	SwingLo, SwingHi float64 // output range with all devices saturated
	AllSaturated     bool    // every amplifier FET in saturation at OP

	// Per-leg wall-clock costs, for the §3 speed/accuracy comparison:
	// the transfer-function leg is where hybrid and full simulation
	// diverge (symbolic program sweep vs per-frequency matrix solves).
	DCTime, TFTime, TranTime time.Duration
}

// StageEvaluator evaluates sizing candidates for one fixed stage spec.
// It caches the compiled symbolic loop transfer function: the MDAC
// topology never changes during a synthesis run, so the expensive
// DPI/SFG + Mason step happens once and every candidate only re-binds the
// extracted small-signal values. It also owns the transfer-function
// sweep's scratch buffers, so it is not safe for concurrent use: each
// synthesis restart builds its own.
type StageEvaluator struct {
	Spec    stagespec.MDACSpec
	Process *pdk.Process
	Mode    Mode

	// NewtonReuse enables the simulator's factorization-reuse Newton
	// variant (DESIGN.md §5.5) on the DC and transient legs. It applies
	// identically at every batch width, so Evaluate and EvaluateBatch
	// stay bitwise interchangeable for a given setting.
	NewtonReuse bool

	prog *expr.Program
	vars []string
	sIdx int

	// sweepProgram scratch: the program's variable slots, the frequency
	// grid and its values, and the evaluation stack.
	slot  []complex128
	freqs []float64
	vals  []complex128
	buf   expr.EvalBuf
}

// NewStageEvaluator prepares an evaluator for the given block spec.
func NewStageEvaluator(spec stagespec.MDACSpec, proc *pdk.Process, mode Mode) *StageEvaluator {
	return &StageEvaluator{Spec: spec, Process: proc, Mode: mode}
}

// Evaluate scores a candidate stage under the given mode. For repeated
// evaluations of the same spec (synthesis inner loop), reuse one
// StageEvaluator, which caches the symbolic transfer function.
func Evaluate(ctx context.Context, st mdac.Stage, mode Mode) (Metrics, error) {
	se := NewStageEvaluator(st.Spec, st.Process, mode)
	return se.Evaluate(ctx, st.Sizing)
}

// Evaluate scores one sizing candidate: a width-1 EvaluateBatch. All
// candidates evaluated through one StageEvaluator must share a topology
// (the compiled loop transfer function is cached per topology).
func (se *StageEvaluator) Evaluate(ctx context.Context, sizing opamp.Amp) (Metrics, error) {
	var m [1]Metrics
	var err [1]error
	se.EvaluateBatch(ctx, []opamp.Amp{sizing}, m[:], err[:])
	return m[0], err[0]
}

// EvaluateBatch scores a population of sizing candidates into the
// index-aligned metrics and errs slices (errs[i] is nil exactly when
// metrics[i] is valid). The simulation modes share one warm sim.Batch
// kernel (layout, sparsity analysis, solver workspaces) across the
// candidates, so a single candidate compiles its hold circuit once for
// both the DC and transient legs. Every result is bitwise identical to
// evaluating the same sizing alone, so the batch width never perturbs
// a deterministic synthesis run.
//
// One candidate is the engine's cancellation granule: ctx is checked
// before each candidate and between its DC, transfer-function, and
// transient legs; once ctx is done the remaining entries carry ctx.Err().
func (se *StageEvaluator) EvaluateBatch(ctx context.Context, sizings []opamp.Amp, metrics []Metrics, errs []error) {
	switch se.Mode {
	case EquationOnly:
		st := mdac.Stage{Spec: se.Spec, Process: se.Process}
		for i, sz := range sizings {
			if errs[i] = ctx.Err(); errs[i] != nil {
				metrics[i] = Metrics{}
				continue
			}
			st.Sizing = sz
			evaluateEquations(&st, &metrics[i])
		}
		return
	case Hybrid, SimOnly:
	default:
		for i := range sizings {
			metrics[i], errs[i] = Metrics{}, fmt.Errorf("hybrid: unknown mode %d", se.Mode)
		}
		return
	}
	holds := make([]*netlist.Circuit, 0, len(sizings))
	idx := make([]int, 0, len(sizings)) // candidate index of each hold
	for i, sz := range sizings {
		metrics[i], errs[i] = Metrics{Mode: se.Mode}, nil
		st := mdac.Stage{Spec: se.Spec, Sizing: sz, Process: se.Process}
		hold, err := st.HoldCircuit()
		if err != nil {
			errs[i] = err
			continue
		}
		holds = append(holds, hold)
		idx = append(idx, i)
	}
	if len(holds) == 0 {
		return
	}
	bt, err := sim.NewBatch(holds)
	if err != nil {
		if len(holds) == 1 {
			errs[idx[0]] = fmt.Errorf("hybrid: closed-loop OP: %w", err)
			return
		}
		// A candidate that does not bind to the shared kernel (e.g. it
		// changed the topology) must fail only itself: score each one
		// as its own width-1 batch.
		for _, i := range idx {
			se.EvaluateBatch(ctx, sizings[i:i+1], metrics[i:i+1], errs[i:i+1])
		}
		return
	}
	for j, i := range idx {
		if errs[i] = ctx.Err(); errs[i] != nil {
			continue
		}
		st := mdac.Stage{Spec: se.Spec, Sizing: sizings[i], Process: se.Process}
		metrics[i], errs[i] = se.evaluateHold(ctx, st, holds[j], bt, j)
	}
}

// compileLoopTF builds and caches the symbolic loop transfer function
// from the candidate's topology. The cin placeholder value is irrelevant:
// only the element's existence shapes the topology, and Env re-binds its
// value on every candidate.
func (se *StageEvaluator) compileLoopTF(amp opamp.Amp) error {
	if se.prog != nil {
		return nil
	}
	st := mdac.Stage{Spec: se.Spec, Sizing: amp, Process: se.Process}
	loop, err := st.LoopCircuit(1e-16)
	if err != nil {
		return err
	}
	// The diode-connected mirror gate is a low-impedance bias node;
	// grounding it for small-signal purposes is the designer's standard
	// simplification and collapses the Mason loop set (and with it the
	// compiled program) by an order of magnitude.
	an, err := dpi.Build(loop, dpi.Options{
		Input: mdac.NodeDrv, IncludeCaps: true,
		ACGround: []string{mdac.AmpPrefix + "bn"},
	})
	if err != nil {
		return fmt.Errorf("hybrid: DPI build: %w", err)
	}
	tf, err := an.TransferFunction(mdac.NodeFB)
	if err != nil {
		return fmt.Errorf("hybrid: Mason: %w", err)
	}
	prog, vars, err := tf.Compile()
	if err != nil {
		return err
	}
	se.prog, se.vars = prog, vars
	se.sIdx = prog.VarIndex("s")
	if se.sIdx < 0 {
		return fmt.Errorf("hybrid: loop transfer function lost its frequency dependence")
	}
	return nil
}

// evaluateEquations is the pure closed-form path into m: no simulator
// calls, and it cannot fail.
func evaluateEquations(st *mdac.Stage, m *Metrics) {
	sp := &st.Spec
	eq := st.Sizing.Analyze(st.Process, sp.CLoad+sp.CFeed)
	beta := sp.Beta
	*m = Metrics{Mode: EquationOnly}
	m.Power = eq.Power
	m.AmpGain = eq.A0
	m.LoopGain0 = eq.A0 * beta
	m.CrossoverHz = eq.GBW * beta
	m.PhaseMargin = 90 - math.Atan(m.CrossoverHz/eq.P2)*180/math.Pi
	if m.LoopGain0 > 0 {
		m.StaticError = 1 / m.LoopGain0
	} else {
		m.StaticError = 1
	}
	// Settling: slew phase + N·τ linear phase.
	step := st.IdealOutputStep()
	tSlew := 0.0
	if eq.SR > 0 {
		tSlew = step / eq.SR * 0.5 // half the step is slew-limited, typically
	}
	tau := 1 / (2 * math.Pi * m.CrossoverHz)
	ntau := math.Log(1 / sp.SettleTol)
	m.SettleTime = tSlew + ntau*tau
	m.Settled = m.SettleTime <= sp.TSettle+sp.TSlew
	m.SwingLo, m.SwingHi = eq.SwingLo, eq.SwingHi
	m.AllSaturated = true // equations assume intended regions
}

// evaluateHold runs the three evaluation legs for candidate idx of the
// warm kernel bt, whose hold circuit is hold. Hybrid and SimOnly share
// the DC and transient legs; they differ in how the loop transfer
// function is obtained.
func (se *StageEvaluator) evaluateHold(ctx context.Context, st mdac.Stage, hold *netlist.Circuit, bt *sim.Batch, idx int) (Metrics, error) {
	mode := se.Mode
	m := Metrics{Mode: mode}
	sp := st.Spec

	tDC := time.Now()
	op, err := bt.OP(idx, sim.DCOpts{NewtonReuse: se.NewtonReuse})
	if err != nil {
		return m, fmt.Errorf("hybrid: closed-loop OP: %w", err)
	}
	m.DCTime = time.Since(tDC)
	m.Power = op.SupplyPower(hold)

	// Operating-region audit over the amplifier devices. The mirror
	// diodes are saturated by construction; all of them must be.
	m.AllSaturated = true
	var cin float64
	for name, mop := range op.MOS {
		if mop.Region != device.Saturation {
			m.AllSaturated = false
		}
		if name == mdac.AmpPrefix+"m1" {
			cin = mop.CGS
		}
	}
	m.SwingLo, m.SwingHi = st.Sizing.SwingWindow(op.MOS, mdac.AmpPrefix, st.Process.VDD)

	// Loop transfer function.
	if err := ctx.Err(); err != nil {
		return m, err
	}
	loop, err := st.LoopCircuit(cin)
	if err != nil {
		return m, err
	}
	beta := sp.CFeed / (sp.CFeed + sp.CSample + cin)
	tTF := time.Now()
	switch mode {
	case Hybrid:
		if err := se.compileLoopTF(st.Sizing); err != nil {
			return m, err
		}
		env, err := dpi.Env(loop, op, dpi.Options{})
		if err != nil {
			return m, err
		}
		// Evaluate the cached symbolic transfer function pointwise with
		// complex arithmetic. (Converting the un-cancelled degree-~50
		// Mason rational function to polynomial coefficients loses double
		// precision; direct evaluation of the compiled program does not.)
		met, err := se.loopMetrics(env)
		if err != nil {
			return m, fmt.Errorf("hybrid: numeric TF: %w", err)
		}
		m.LoopGain0 = met.gain0
		m.CrossoverHz = met.crossover
		m.PhaseMargin = met.pm
	case SimOnly:
		ac, err := sim.AC(loop, op, sim.ACOpts{FStart: 1e3, FStop: 100e9, PointsPerDecade: 40})
		if err != nil {
			return m, fmt.Errorf("hybrid: AC sweep: %w", err)
		}
		h, err := ac.Transfer(mdac.NodeFB)
		if err != nil {
			return m, err
		}
		vals := make([]complex128, len(h))
		for i := range h {
			vals[i] = -h[i] // loop gain T = −V(fb)
		}
		met := loopMetricsFrom(ac.Freqs, vals)
		m.LoopGain0 = met.gain0
		m.CrossoverHz = met.crossover
		m.PhaseMargin = met.pm
	}
	m.TFTime = time.Since(tTF)
	m.AmpGain = m.LoopGain0 / beta
	if m.LoopGain0 > 0 {
		m.StaticError = 1 / m.LoopGain0
	} else {
		m.StaticError = 1
	}

	// Transient settling of the worst-case residue step.
	if err := ctx.Err(); err != nil {
		return m, err
	}
	window := sp.TSlew + sp.TSettle
	tStop := mdac.StepDelay + 1.5*window
	tStep := window / 400
	tTran := time.Now()
	tr, err := bt.Tran(idx, sim.TranOpts{TStop: tStop, TStep: tStep, NewtonReuse: se.NewtonReuse})
	if err != nil {
		return m, fmt.Errorf("hybrid: transient: %w", err)
	}
	m.TranTime = time.Since(tTran)
	settle, ok, err := SettleTime(tr, mdac.NodeOut, mdac.StepDelay, sp.SettleTol*st.IdealOutputStep())
	if err != nil {
		return m, err
	}
	m.SettleTime = settle
	m.Settled = ok && settle <= window
	return m, nil
}

type loopMet struct {
	gain0, crossover, pm float64
}

// loopMetrics extracts the loop-gain metrics from the cached program with
// an adaptive two-pass sweep: a coarse pass brackets the unity crossing,
// a fine pass around it pins down the crossover and phase margin.
func (se *StageEvaluator) loopMetrics(env map[string]float64) (loopMet, error) {
	coarseF, coarseV, err := se.sweepProgram(env, 1e3, 100e9, 8)
	if err != nil {
		return loopMet{}, err
	}
	negate(coarseV) // loop gain T = −V(fb)/V(drive)
	met := loopMetricsFrom(coarseF, coarseV)
	// The fine sweep reuses the coarse sweep's buffers; met holds all
	// that is needed from it.
	if met.crossover > 0 {
		lo := met.crossover / 3
		hi := met.crossover * 3
		fineF, fineV, err := se.sweepProgram(env, lo, hi, 40)
		if err != nil {
			return loopMet{}, err
		}
		negate(fineV)
		fine := loopMetricsFrom(fineF, fineV)
		if fine.crossover > 0 {
			met.crossover = fine.crossover
			met.pm = fine.pm
		}
	}
	return met, nil
}

func negate(v []complex128) {
	for i := range v {
		v[i] = -v[i]
	}
}

// sweepProgram evaluates the cached transfer-function program over a
// log-frequency grid — the "numerical transfer function" leg of the
// hybrid evaluator. The returned slices are evaluator-owned and valid
// until the next call.
func (se *StageEvaluator) sweepProgram(env map[string]float64, fLo, fHi float64, ppd int) ([]float64, []complex128, error) {
	if len(se.slot) != len(se.vars) {
		se.slot = make([]complex128, len(se.vars))
	}
	slot := se.slot
	for i, name := range se.vars {
		if i == se.sIdx {
			continue
		}
		v, ok := env[name]
		if !ok {
			return nil, nil, fmt.Errorf("hybrid: environment missing %q", name)
		}
		slot[i] = complex(v, 0)
	}
	decades := math.Log10(fHi / fLo)
	n := int(decades*float64(ppd)) + 1
	if n < 2 {
		n = 2
	}
	if cap(se.freqs) < n {
		se.freqs = make([]float64, n)
		se.vals = make([]complex128, n)
	}
	freqs, vals := se.freqs[:n], se.vals[:n]
	for i := 0; i < n; i++ {
		f := fLo * math.Pow(10, decades*float64(i)/float64(n-1))
		freqs[i] = f
		slot[se.sIdx] = complex(0, 2*math.Pi*f)
		v, err := se.prog.EvalCInto(&se.buf, slot)
		if err != nil {
			return nil, nil, err
		}
		vals[i] = v
	}
	return freqs, vals, nil
}

// loopMetricsFrom extracts the DC loop gain, unity crossover and phase
// margin from sampled loop-gain data (phase unwrapped across the sweep).
func loopMetricsFrom(freqs []float64, vals []complex128) loopMet {
	var met loopMet
	if len(vals) == 0 {
		return met
	}
	met.gain0 = cmplxAbs(vals[0])
	prevMag := cmplxAbs(vals[0])
	prevPhase := math.Atan2(imag(vals[0]), real(vals[0])) * 180 / math.Pi
	for i := 1; i < len(vals); i++ {
		mag := cmplxAbs(vals[i])
		phase := math.Atan2(imag(vals[i]), real(vals[i])) * 180 / math.Pi
		for phase-prevPhase > 180 {
			phase -= 360
		}
		for phase-prevPhase < -180 {
			phase += 360
		}
		if met.crossover == 0 && prevMag >= 1 && mag < 1 {
			frac := (prevMag - 1) / (prevMag - mag)
			lf := math.Log10(freqs[i-1]) + frac*(math.Log10(freqs[i])-math.Log10(freqs[i-1]))
			met.crossover = math.Pow(10, lf)
			phAt := prevPhase + frac*(phase-prevPhase)
			pm := 180 + phAt
			for pm > 360 {
				pm -= 360
			}
			for pm < -360 {
				pm += 360
			}
			met.pm = pm
		}
		prevMag, prevPhase = mag, phase
	}
	return met
}

func cmplxAbs(v complex128) float64 { return math.Hypot(real(v), imag(v)) }

// SettleTime measures when the waveform last leaves the ±band around its
// own final value, returning the elapsed time since t0. ok is false when
// the waveform never stays inside the band.
func SettleTime(tr *sim.TranResult, node string, t0, band float64) (float64, bool, error) {
	w, err := tr.Waveform(node)
	if err != nil {
		return 0, false, err
	}
	if len(w) < 2 {
		return 0, false, fmt.Errorf("hybrid: waveform too short")
	}
	final := w[len(w)-1]
	lastOutside := -1
	for i, v := range w {
		if tr.T[i] < t0 {
			continue
		}
		if math.Abs(v-final) > band {
			lastOutside = i
		}
	}
	if lastOutside == -1 {
		return 0, true, nil // never left the band after the step
	}
	// Require a meaningful dwell inside the band at the end of the window;
	// a waveform that only "settles" because the final sample matches
	// itself has not settled.
	tEnd := tr.T[len(tr.T)-1]
	dwell := tEnd - tr.T[lastOutside]
	if lastOutside >= len(w)-2 || dwell < 0.02*(tEnd-t0) {
		return tEnd - t0, false, nil
	}
	return tr.T[lastOutside+1] - t0, true, nil
}

// SpecReport is the pass/fail audit of one candidate against its block
// spec: the scalar violation measure penalty-based optimization uses
// (0 = feasible; larger = worse) and one human-readable line per failed
// spec term.
type SpecReport struct {
	Violations float64
	Failures   []string
}

// specTerm is one audited requirement of a candidate: its normalized
// shortfall, positive exactly when the requirement fails, and the
// failure line — format, formatted with the measured value got and the
// threshold limit unless plain.
type specTerm struct {
	short      float64
	format     string
	got, limit float64
	plain      bool
}

func (t *specTerm) line() string {
	if t.plain {
		return t.format
	}
	return fmt.Sprintf(t.format, t.got, t.limit)
}

// specTerms audits every requirement in report order. It is the one
// definition Check and Violations share, so their sums agree term by
// term.
func specTerms(sp *Specs, m *Metrics) [9]specTerm {
	// A swing term's difference is positive exactly when the comparison
	// fails: gradual underflow keeps the difference of two distinct
	// finite floats nonzero, and NaN fails both.
	return [...]specTerm{
		{short: rel(sp.GainMin, m.AmpGain), format: "gain %.0f < required %.0f", got: m.AmpGain, limit: sp.GainMin},
		{short: rel(sp.CrossoverMin, m.CrossoverHz), format: "crossover %.3g < required %.3g", got: m.CrossoverHz, limit: sp.CrossoverMin},
		{short: rel(sp.PMMin, m.PhaseMargin), format: "PM %.1f° < required %.1f°", got: m.PhaseMargin, limit: sp.PMMin},
		{short: rel(m.StaticError, sp.StaticErrMax) * 0.5, format: "static error %.2g > budget %.2g", got: m.StaticError, limit: sp.StaticErrMax},
		{short: flag(!m.Settled, 1), format: "did not settle in window", plain: true},
		{short: rel(m.SettleTime, sp.SettleTimeMax), format: "settle %.3g > window %.3g", got: m.SettleTime, limit: sp.SettleTimeMax},
		{short: m.SwingLo - sp.SwingLoMax, format: "swing floor %.2f above %.2f", got: m.SwingLo, limit: sp.SwingLoMax},
		{short: sp.SwingHiMin - m.SwingHi, format: "swing ceiling %.2f below %.2f", got: m.SwingHi, limit: sp.SwingHiMin},
		{short: flag(!m.AllSaturated, 2), format: "device out of saturation", plain: true},
	}
}

// Check audits metrics against the stage spec: the violation sum plus a
// formatted line per failed requirement. PMMin is the phase-margin
// floor (60° is the customary settling-friendly target). Formatting
// allocates, so the search loop scores candidates with Violations and
// calls Check once, on the result it returns.
func Check(sp Specs, m Metrics) SpecReport {
	var r SpecReport
	terms := specTerms(&sp, &m)
	for i := range terms {
		if t := &terms[i]; t.short > 0 {
			r.Violations += t.short
			r.Failures = append(r.Failures, t.line())
		}
	}
	return r
}

// Violations returns Check(sp, m).Violations — the same additions in the
// same order, so the two agree bitwise — without building the failure
// lines. It does not allocate.
func Violations(sp Specs, m Metrics) float64 {
	v := 0.0
	terms := specTerms(&sp, &m)
	for i := range terms {
		if t := &terms[i]; t.short > 0 {
			v += t.short
		}
	}
	return v
}

// flag returns weight when failed, else 0.
func flag(failed bool, weight float64) float64 {
	if failed {
		return weight
	}
	return 0
}

// rel returns the normalized shortfall of got versus a want-at-least
// target (0 when satisfied).
func rel(want, got float64) float64 {
	if want <= 0 || got >= want {
		return 0
	}
	return (want - got) / want
}

// Specs is the pass/fail threshold set derived from an MDAC spec.
type Specs struct {
	GainMin       float64
	CrossoverMin  float64 // β·GBW requirement
	PMMin         float64
	StaticErrMax  float64
	SettleTimeMax float64
	SwingLoMax    float64
	SwingHiMin    float64
}

// SpecsFor derives the audit thresholds from a stage.
func SpecsFor(st mdac.Stage) Specs {
	sp := st.Spec
	return Specs{
		GainMin:       sp.GainMin,
		CrossoverMin:  sp.GBWMin * sp.Beta,
		PMMin:         60,
		StaticErrMax:  sp.SettleTol / 2,
		SettleTimeMax: sp.TSettle + sp.TSlew,
		SwingLoMax:    mdac.VCM - sp.SwingMin,
		SwingHiMin:    mdac.VCM + sp.SwingMin,
	}
}
