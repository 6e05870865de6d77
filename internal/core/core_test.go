package core

import (
	"context"
	"reflect"
	"testing"

	"pipesyn/internal/enum"
	"pipesyn/internal/hybrid"
	"pipesyn/internal/synth"
)

// eqOpts runs the full flow with equation-mode evaluation: structurally
// identical to the hybrid flow, fast enough to exercise every candidate in
// unit tests.
func eqOpts(bits int) Options {
	return Options{
		Bits:       bits,
		SampleRate: 40e6,
		Mode:       hybrid.EquationOnly,
		Synth:      synth.Options{Seed: 1, MaxEvals: 60, PatternIter: 40},
	}
}

func TestOptimize13BitEquationMode(t *testing.T) {
	st, err := Optimize(context.Background(), eqOpts(13))
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Candidates) != 7 {
		t.Fatalf("%d candidates, want 7", len(st.Candidates))
	}
	if st.PaperMDACClasses != 11 {
		t.Fatalf("%d MDAC reuse classes, want the paper's 11", st.PaperMDACClasses)
	}
	if len(st.MDACs) != 20 {
		t.Fatalf("%d exact design points, want 20", len(st.MDACs))
	}
	// Candidates sorted ascending by power within feasibility class.
	for i := 1; i < len(st.Candidates); i++ {
		a, b := st.Candidates[i-1], st.Candidates[i]
		if a.AllFeasible == b.AllFeasible && a.TotalPower > b.TotalPower {
			t.Fatal("candidates not sorted")
		}
	}
	if st.Best.TotalPower <= 0 {
		t.Fatal("best candidate has no power")
	}
	if st.TotalEvals == 0 {
		t.Fatal("no synthesis work recorded")
	}
	// Every candidate sums its stage powers.
	for _, c := range st.Candidates {
		sum := 0.0
		for _, s := range c.Stages {
			sum += s.Total
		}
		if diff := sum - c.TotalPower; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("%s: power sum mismatch", c.Config)
		}
	}
}

func TestWarmStartChainsAcrossMDACs(t *testing.T) {
	opts := eqOpts(13)
	opts.Retarget = true
	st, err := Optimize(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	warm := 0
	for _, rec := range st.MDACs {
		if rec.WarmFrom != nil {
			warm++
		}
	}
	// With 11 MDACs and chaining both across stages and resolutions, the
	// majority should be retargets, as in the paper.
	if warm < 6 {
		t.Fatalf("only %d of %d MDACs were retargeted", warm, len(st.MDACs))
	}
}

func TestSweepAndRules(t *testing.T) {
	studies, err := Sweep(context.Background(), []int{10, 11}, eqOpts(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(studies) != 2 || studies[0].Bits != 10 || studies[1].Bits != 11 {
		t.Fatalf("sweep shape wrong")
	}
	rules := DeriveRules(studies)
	if len(rules) != 2 {
		t.Fatalf("rules = %+v", rules)
	}
	for _, r := range rules {
		if r.FirstBits != r.Best[0] || r.LastBits != r.Best[len(r.Best)-1] {
			t.Fatalf("rule fields inconsistent: %+v", r)
		}
		if !r.Best.Valid(4) {
			t.Fatalf("best config invalid: %v", r.Best)
		}
	}
}

func TestOptimizeHybridSmoke(t *testing.T) {
	// One small hybrid-mode study on a modest converter proves the full
	// simulate-extract-synthesize loop end to end.
	if testing.Short() {
		t.Skip("hybrid study is seconds-long")
	}
	opts := Options{
		Bits:        8,
		SampleRate:  40e6,
		Mode:        hybrid.Hybrid,
		Constraints: enum.Constraints{LeadingBits: 5},
		Synth:       synth.Options{Seed: 2, MaxEvals: 25, PatternIter: 15},
	}
	st, err := Optimize(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if st.Best.TotalPower <= 0 {
		t.Fatal("no power result")
	}
	for _, rec := range st.MDACs {
		if rec.Result.Metrics.Power <= 0 {
			t.Fatalf("MDAC %+v has no power", rec.Key)
		}
	}
}

func TestBehavioralCheck(t *testing.T) {
	opts := eqOpts(10)
	st, err := Optimize(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	m, err := BehavioralCheck(st, opts, 2048)
	if err != nil {
		t.Fatal(err)
	}
	// A synthesized 10-bit converter should deliver most of its bits; the
	// equation-mode static errors are optimistic, so allow a wide floor.
	if m.ENOB < 7.5 || m.ENOB > 10.2 {
		t.Fatalf("behavioral ENOB = %.2f, outside plausible band", m.ENOB)
	}
}

// TestOptimizeParallelMatchesSerial is the scheduler's determinism
// guarantee: any worker count reproduces the serial study bit-identically
// — same candidate ordering, same powers, same per-key sizings — both
// cold and under retargeting (where warm sources run in earlier waves).
func TestOptimizeParallelMatchesSerial(t *testing.T) {
	for _, retarget := range []bool{false, true} {
		opts := eqOpts(13)
		opts.Retarget = retarget
		opts.Workers = 1
		serial, err := Optimize(context.Background(), opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 8} {
			opts := eqOpts(13)
			opts.Retarget = retarget
			opts.Workers = workers
			par, err := Optimize(context.Background(), opts)
			if err != nil {
				t.Fatal(err)
			}
			if par.Best.Config.String() != serial.Best.Config.String() {
				t.Fatalf("retarget=%v workers=%d: best %s != serial %s",
					retarget, workers, par.Best.Config, serial.Best.Config)
			}
			if par.TotalEvals != serial.TotalEvals {
				t.Fatalf("retarget=%v workers=%d: evals %d != serial %d",
					retarget, workers, par.TotalEvals, serial.TotalEvals)
			}
			if len(par.Candidates) != len(serial.Candidates) {
				t.Fatalf("candidate count differs")
			}
			for i := range serial.Candidates {
				a, b := serial.Candidates[i], par.Candidates[i]
				if a.Config.String() != b.Config.String() || a.TotalPower != b.TotalPower {
					t.Fatalf("retarget=%v workers=%d: candidate %d differs: %s %.9g vs %s %.9g",
						retarget, workers, i, a.Config, a.TotalPower, b.Config, b.TotalPower)
				}
			}
			if !reflect.DeepEqual(serial.MDACs, par.MDACs) {
				t.Fatalf("retarget=%v workers=%d: per-key MDAC records differ", retarget, workers)
			}
		}
	}
}

// TestSweepParallelMatchesSerial checks the concurrent per-resolution
// studies against the serial sweep.
func TestSweepParallelMatchesSerial(t *testing.T) {
	serialBase := eqOpts(0)
	serialBase.Workers = 1
	serial, err := Sweep(context.Background(), []int{10, 11, 12}, serialBase)
	if err != nil {
		t.Fatal(err)
	}
	parBase := eqOpts(0)
	parBase.Workers = 4
	par, err := Sweep(context.Background(), []int{10, 11, 12}, parBase)
	if err != nil {
		t.Fatal(err)
	}
	if len(par) != len(serial) {
		t.Fatalf("sweep lengths differ")
	}
	for i := range serial {
		if par[i].Bits != serial[i].Bits ||
			par[i].Best.Config.String() != serial[i].Best.Config.String() ||
			par[i].Best.TotalPower != serial[i].Best.TotalPower {
			t.Fatalf("study %d differs: %d-bit %s %.9g vs %d-bit %s %.9g",
				i, serial[i].Bits, serial[i].Best.Config, serial[i].Best.TotalPower,
				par[i].Bits, par[i].Best.Config, par[i].Best.TotalPower)
		}
	}
}

// TestOptimizeCacheSecondRunSkipsEvals exercises the content-addressed
// cache through the full study flow: the second run replays every
// synthesis (TotalEvals → 0), and a fresh cache over the same directory
// round-trips through the disk store.
func TestOptimizeCacheSecondRunSkipsEvals(t *testing.T) {
	dir := t.TempDir()
	cache, err := synth.NewCache(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	opts := eqOpts(12)
	opts.Synth.Cache = cache

	cold, err := Optimize(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if cold.TotalEvals == 0 {
		t.Fatal("cold run did no work")
	}
	if cold.CacheHits != 0 || cold.CacheMisses != len(cold.MDACs) {
		t.Fatalf("cold run counters: %d hits, %d misses over %d points",
			cold.CacheHits, cold.CacheMisses, len(cold.MDACs))
	}

	warm, err := Optimize(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if warm.TotalEvals != 0 {
		t.Fatalf("warm run spent %d evals, want 0", warm.TotalEvals)
	}
	if warm.CacheHits != len(warm.MDACs) || warm.CacheMisses != 0 {
		t.Fatalf("warm run counters: %d hits, %d misses over %d points",
			warm.CacheHits, warm.CacheMisses, len(warm.MDACs))
	}
	if warm.Best.Config.String() != cold.Best.Config.String() ||
		warm.Best.TotalPower != cold.Best.TotalPower {
		t.Fatalf("cached study diverged: %s %.9g vs %s %.9g",
			warm.Best.Config, warm.Best.TotalPower, cold.Best.Config, cold.Best.TotalPower)
	}

	// Fresh process simulation: a brand-new cache over the same directory
	// must serve everything from disk.
	cache2, err := synth.NewCache(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	opts.Synth.Cache = cache2
	disk, err := Optimize(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if disk.TotalEvals != 0 || disk.CacheHits != len(disk.MDACs) {
		t.Fatalf("disk round-trip: %d evals, %d hits", disk.TotalEvals, disk.CacheHits)
	}
	if st := cache2.Stats(); st.DiskHits != int64(len(disk.MDACs)) {
		t.Fatalf("disk hits = %d, want %d", st.DiskHits, len(disk.MDACs))
	}
	if disk.Best.TotalPower != cold.Best.TotalPower {
		t.Fatal("disk-cached study diverged from the cold run")
	}
}

func TestOptimizeErrors(t *testing.T) {
	bad := eqOpts(2)
	if _, err := Optimize(context.Background(), bad); err == nil {
		t.Fatal("expected enumeration/translation error")
	}
}

func TestOptimizeWithSHA(t *testing.T) {
	opts := eqOpts(10)
	opts.IncludeSHA = true
	st, err := Optimize(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if st.SHA == nil || st.SHA.Metrics.Power <= 0 {
		t.Fatal("S/H missing from study")
	}
	full := st.FullPower(st.Best)
	if full <= st.Best.TotalPower {
		t.Fatal("full power must include the S/H")
	}
	// Without the flag, FullPower equals the leading-stage power.
	st2, err := Optimize(context.Background(), eqOpts(10))
	if err != nil {
		t.Fatal(err)
	}
	if st2.FullPower(st2.Best) != st2.Best.TotalPower {
		t.Fatal("FullPower without SHA should be unchanged")
	}
}

// TestSurrogatePanelLowersEquationPower pins the seed-panel evidence for
// keeping Options.Synth.Surrogate: on the 13-bit equation-mode study at
// default budgets, the quadratic surrogate lowers the mean winner power
// over eight seeds (measured 1.161 mW without it, 0.781 mW with it).
func TestSurrogatePanelLowersEquationPower(t *testing.T) {
	seeds := []int64{1, 3, 5, 7, 11, 13, 17, 19}
	mean := func(surrogate bool) float64 {
		sum := 0.0
		for _, seed := range seeds {
			o := Options{Bits: 13, Mode: hybrid.EquationOnly,
				Synth: synth.Options{Seed: seed, Surrogate: surrogate}}
			st, err := Optimize(context.Background(), o)
			if err != nil {
				t.Fatal(err)
			}
			sum += st.Best.TotalPower
		}
		return sum / float64(len(seeds))
	}
	plain, sur := mean(false), mean(true)
	t.Logf("mean winner power: %.3f mW plain, %.3f mW with the surrogate", plain*1e3, sur*1e3)
	if sur >= plain {
		t.Fatalf("surrogate mean winner power %.3f mW is not below the plain %.3f mW", sur*1e3, plain*1e3)
	}
}
