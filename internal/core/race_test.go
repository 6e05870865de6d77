package core

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"pipesyn/internal/sched"
	"pipesyn/internal/testutil"
)

// TestOptimizeRaceParallelMatchesSerial pins racing's half of the
// determinism contract: the rung schedule, promotions, and final study
// are bit-identical for any worker count (run under -race in CI, which
// also makes it the rung-promotion data-race probe).
func TestOptimizeRaceParallelMatchesSerial(t *testing.T) {
	mk := func(workers int) *Study {
		o := eqOpts(12)
		o.Race = true
		o.Workers = workers
		st, err := Optimize(context.Background(), o)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	serial := mk(1)
	if serial.Race == nil || serial.Race.Rungs != 2 {
		t.Fatalf("race stats missing or wrong shape: %+v", serial.Race)
	}
	if serial.Race.Pruned == 0 {
		t.Fatal("racing pruned nothing — the schedule never fired")
	}
	for _, w := range []int{2, 8} {
		if got := mk(w); !reflect.DeepEqual(got, serial) {
			t.Fatalf("workers=%d racing study diverged from serial", w)
		}
	}
}

// TestOptimizeRaceSavesEvals is the study-level acceptance property:
// racing must reach a fully feasible best configuration with at least
// 30%% fewer evaluator calls than the uniform flow, at equal or better
// power, and the winner must be a full-fidelity survivor.
func TestOptimizeRaceSavesEvals(t *testing.T) {
	uniform, err := Optimize(context.Background(), eqOpts(13))
	if err != nil {
		t.Fatal(err)
	}
	ro := eqOpts(13)
	ro.Race = true
	raced, err := Optimize(context.Background(), ro)
	if err != nil {
		t.Fatal(err)
	}
	if !raced.Best.AllFeasible {
		t.Fatalf("racing best is not feasible: %+v", raced.Best.Config)
	}
	if raced.Best.Pruned {
		t.Fatal("racing elected a pruned candidate as Best")
	}
	if raced.TotalEvals > uniform.TotalEvals*7/10 {
		t.Fatalf("racing spent %d evals vs uniform %d — want ≥30%% fewer",
			raced.TotalEvals, uniform.TotalEvals)
	}
	if raced.Best.TotalPower > uniform.Best.TotalPower*1.001 {
		t.Fatalf("racing best power %.3g W worse than uniform %.3g W",
			raced.Best.TotalPower, uniform.Best.TotalPower)
	}
	// The pruned flags, stats, and ranking must agree: every pruned
	// candidate ranks after every survivor, and the counts line up.
	prunedCount := 0
	sawPruned := false
	for _, c := range raced.Candidates {
		if c.Pruned {
			prunedCount++
			sawPruned = true
		} else if sawPruned {
			t.Fatal("a full-fidelity survivor ranked below a pruned candidate")
		}
	}
	if prunedCount != raced.Race.Pruned {
		t.Fatalf("%d candidates flagged pruned, stats say %d", prunedCount, raced.Race.Pruned)
	}
	if len(raced.Candidates) != len(uniform.Candidates) {
		t.Fatalf("racing dropped candidates from the report: %d vs %d",
			len(raced.Candidates), len(uniform.Candidates))
	}
}

// TestOptimizeRaceEmitsRungEvents: one race_rung event per rung, with
// the entrant/promotion accounting the daemon's metrics hang off.
func TestOptimizeRaceEmitsRungEvents(t *testing.T) {
	var mu sync.Mutex
	var rungs []ProgressEvent
	o := eqOpts(12)
	o.Race = true
	o.Progress = func(ev ProgressEvent) {
		if ev.Kind == "race_rung" {
			mu.Lock()
			rungs = append(rungs, ev)
			mu.Unlock()
		}
	}
	st, err := Optimize(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rungs) != st.Race.Rungs {
		t.Fatalf("%d race_rung events for %d rungs", len(rungs), st.Race.Rungs)
	}
	first, last := rungs[0], rungs[len(rungs)-1]
	if first.Rung != 1 || first.Candidates != len(st.Candidates) {
		t.Fatalf("first rung event malformed: %+v", first)
	}
	if first.Promoted == 0 || first.Promoted >= first.Candidates {
		t.Fatalf("first rung promoted %d of %d", first.Promoted, first.Candidates)
	}
	if last.Rung != st.Race.Rungs || last.Promoted != 0 {
		t.Fatalf("final rung event malformed: %+v", last)
	}
	if last.Pruned != st.Race.Pruned {
		t.Fatalf("final event reports %d pruned, stats say %d", last.Pruned, st.Race.Pruned)
	}
}

// TestOptimizeRacePanicNamesDesignPoint: a worker panic inside a racing
// rung surfaces as a *sched.PanicError labelled with the design point,
// exactly like the uniform flow's, not with the rung's task index.
func TestOptimizeRacePanicNamesDesignPoint(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	for _, workers := range []int{1, 2} {
		opts := eqOpts(12)
		opts.Race = true
		opts.Workers = workers
		opts.Synth.EvalHook = func(context.Context, int) error {
			panic("injected racing fault")
		}
		_, err := Optimize(context.Background(), opts)
		var pe *sched.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want *sched.PanicError", workers, err)
		}
		if !strings.Contains(pe.Label, "design point stage") || pe.Value != "injected racing fault" {
			t.Fatalf("workers=%d: panic %q: %v does not name the design point", workers, pe.Label, pe.Value)
		}
	}
}
