package hybrid

import (
	"context"
	"testing"

	"pipesyn/internal/opamp"
)

// benchSizings derives n structurally identical sizing variants of the
// relaxed stage, spread far enough apart that each candidate settles on
// its own operating point.
func benchSizings(tb testing.TB, n int) []opamp.Amp {
	tb.Helper()
	st := relaxedStage(tb)
	base := st.Sizing.AppendVector(nil)
	out := make([]opamp.Amp, n)
	for i := range out {
		v := append([]float64(nil), base...)
		for j := range v {
			v[j] *= 1 + 0.04*float64(i)*float64(j%3)
		}
		sz, err := st.Sizing.WithVector(v, st.Process)
		if err != nil {
			tb.Fatal(err)
		}
		out[i] = sz
	}
	return out
}

// BenchmarkEvaluateSerial8 evaluates 8 candidates through independent
// Evaluate calls: each is a width-1 batch that pays its own netlist
// build, one layout compile shared by its DC and transient legs,
// symbolic analysis, and workspace allocation.
func BenchmarkEvaluateSerial8(b *testing.B) {
	st := relaxedStage(b)
	sizings := benchSizings(b, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		se := NewStageEvaluator(st.Spec, st.Process, Hybrid)
		for _, sz := range sizings {
			if _, err := se.Evaluate(context.Background(), sz); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkEvaluateBatch8 evaluates the same 8 candidates through one
// warm sim.Batch kernel with the reuse-Newton solver on — the
// configuration the annealer's batched moves run (synth.Options
// {BatchEval, NewtonReuse}). Compare ns/op against EvaluateSerial8 for
// the full batched-path speedup; for the same-config bitwise
// equivalence contract see TestEvaluateBatchMatchesSerial.
func BenchmarkEvaluateBatch8(b *testing.B) {
	st := relaxedStage(b)
	sizings := benchSizings(b, 8)
	ms := make([]Metrics, len(sizings))
	errs := make([]error, len(sizings))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		se := NewStageEvaluator(st.Spec, st.Process, Hybrid)
		se.NewtonReuse = true
		se.EvaluateBatch(context.Background(), sizings, ms, errs)
		for _, err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}
