package core

import (
	"context"
	"math"
	"reflect"
	"sync"
	"testing"

	"pipesyn/internal/hybrid"
	"pipesyn/internal/synth"
)

// TestWarmRunsDoNotShareColdCacheAddress: a racing final rung and a
// retarget chain run warm-started syntheses at the cold request's seed
// and budget. Sharing a synthesis cache with them must not change what a
// cold study returns — the warm results live under their own content
// addresses — and a warm study replayed from the cache is still free.
func TestWarmRunsDoNotShareColdCacheAddress(t *testing.T) {
	cold := Options{Bits: 13, Mode: hybrid.EquationOnly, Synth: synth.Options{Seed: 1}}
	alone, err := Optimize(context.Background(), cold)
	if err != nil {
		t.Fatal(err)
	}
	for name, warmFlow := range map[string]func(*Options){
		"race":     func(o *Options) { o.Race = true },
		"retarget": func(o *Options) { o.Retarget = true },
	} {
		cache, err := synth.NewCache(0, "")
		if err != nil {
			t.Fatal(err)
		}
		warm := cold
		warmFlow(&warm)
		warm.Synth.Cache = cache
		first, err := Optimize(context.Background(), warm)
		if err != nil {
			t.Fatal(err)
		}
		shared := cold
		shared.Synth.Cache = cache
		got, err := Optimize(context.Background(), shared)
		if err != nil {
			t.Fatal(err)
		}
		if got.Best.Config.String() != alone.Best.Config.String() ||
			math.Float64bits(got.Best.TotalPower) != math.Float64bits(alone.Best.TotalPower) {
			t.Fatalf("%s: cold study after a warm one picked %s at %.4f mW, alone %s at %.4f mW", name,
				got.Best.Config, got.Best.TotalPower*1e3, alone.Best.Config, alone.Best.TotalPower*1e3)
		}
		replay, err := Optimize(context.Background(), warm)
		if err != nil {
			t.Fatal(err)
		}
		if replay.TotalEvals != 0 || replay.CacheMisses != 0 {
			t.Fatalf("%s: replay spent %d evals (%d misses)", name, replay.TotalEvals, replay.CacheMisses)
		}
		if replay.Best.Config.String() != first.Best.Config.String() || replay.Best.TotalPower != first.Best.TotalPower {
			t.Fatalf("%s: replay picked %s, first run %s", name, replay.Best.Config, first.Best.Config)
		}
	}
}

// TestRetargetWavesRespectWarmSources: a retargeted design point may
// only start once the point it warm-starts from has finished, at any
// worker count, and the parallel study matches the serial one.
func TestRetargetWavesRespectWarmSources(t *testing.T) {
	var serial *Study
	for _, workers := range []int{1, 4} {
		o := eqOpts(13)
		o.Retarget = true
		o.Workers = workers
		var mu sync.Mutex
		done := map[int]bool{}
		startedBefore := map[int]map[int]bool{} // point -> points done when it started
		o.Progress = func(ev ProgressEvent) {
			mu.Lock()
			defer mu.Unlock()
			switch ev.Kind {
			case "point_start":
				snap := map[int]bool{}
				for k := range done {
					snap[k] = true
				}
				startedBefore[ev.Point] = snap
			case "point_done":
				done[ev.Point] = true
			}
		}
		st, err := Optimize(context.Background(), o)
		if err != nil {
			t.Fatal(err)
		}
		idx := map[DesignPoint]int{}
		for i, rec := range st.MDACs {
			idx[rec.Key] = i
		}
		warm := 0
		for i, rec := range st.MDACs {
			if rec.WarmFrom == nil {
				continue
			}
			warm++
			if src := idx[*rec.WarmFrom]; !startedBefore[i][src] {
				t.Fatalf("workers=%d: point %d started before its warm source %d finished", workers, i, src)
			}
		}
		if warm == 0 {
			t.Fatal("no design point was warm-started")
		}
		if serial == nil {
			serial = st
		} else if !reflect.DeepEqual(st, serial) {
			t.Fatalf("workers=%d retarget study diverged from serial", workers)
		}
	}
}
