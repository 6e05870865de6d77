// Command adcsyn runs the full designer-driven topology optimization for a
// pipelined ADC: enumerate stage-resolution candidates, synthesize every
// distinct MDAC with hybrid evaluation, add sub-ADC power, and print the
// ranked configurations.
//
// Usage:
//
//	adcsyn -bits 13 -fs 40e6 [-mode hybrid|equation|simulation|yield]
//	       [-evals 180] [-restarts 1] [-retarget] [-seed 7] [-verify]
//	       [-race] [-race-rungs 2] [-race-eta 3] [-surrogate]
//	       [-draws 0] [-min-enob 0]
//	       [-workers 0] [-cache-dir DIR] [-timeout DURATION] [-json]
//	       [-cpuprofile FILE] [-memprofile FILE]
//
// The study flags are the adcsynd request fields and pass the same
// validation (service.StudyRequest.Options): negative budgets, racing
// shape without -race, and out-of-range values exit non-zero.
//
// -race turns on the successive-halving racing scheduler: every
// enumerated candidate is synthesized at a cheap low-fidelity rung, the
// top half (by feasibility, then cost) is promoted, and only the
// survivors get the full budget, warm-started from their own
// low-fidelity best sizing. -race-rungs and -race-eta shape the
// schedule. -surrogate interleaves deterministic quadratic-model sizing
// proposals with the annealer's random moves. Both knobs keep the
// bit-identical-for-any--workers contract.
//
// -mode yield is the Monte-Carlo sign-off lane: synthesize with the full
// hybrid evaluator, map the best design onto its process-variation error
// model, sample -draws mismatch realizations (each behaviorally sine-
// tested), and report the ENOB/SNDR distributions plus the yield against
// -min-enob (default bits−1). Draw seeds derive from the study content
// address and the draw index, so the analysis is bit-identical for any
// -workers setting.
//
// -workers bounds the parallel synthesis scheduler (0 = all cores,
// 1 = serial); every setting produces the same study bit for bit.
// -cache-dir enables the content-addressed synthesis cache backed by the
// given directory, so re-running the same study replays its design
// points without evaluator calls.
// -timeout bounds the wall-clock budget of the whole study (0 = none);
// on expiry — or on Ctrl-C — the run stops within one evaluation and
// exits non-zero with a partial-free state (nothing half-written to the
// cache).
// -json replaces the human-readable report with the study result as
// machine-readable JSON on stdout, in the same shape the adcsynd
// service answers with.
// -cpuprofile/-memprofile write pprof profiles of the optimization run
// for `go tool pprof`; the memory profile is taken after the run.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"pipesyn/internal/core"
	"pipesyn/internal/report"
	"pipesyn/internal/sched"
	"pipesyn/internal/service"
	"pipesyn/internal/synth"
	"pipesyn/internal/yield"
)

// studyFlags binds the study-shaping flags onto the adcsynd request
// type, so the CLI validates and translates them through
// service.StudyRequest.Options exactly as the daemon does.
func studyFlags(fs *flag.FlagSet) *service.StudyRequest {
	r := &service.StudyRequest{}
	fs.IntVar(&r.Bits, "bits", 13, "target resolution, bits")
	fs.Float64Var(&r.SampleRate, "fs", 40e6, "sample rate, Hz")
	fs.Float64Var(&r.VRef, "vref", 1.0, "reference (full scale ±VRef), V")
	fs.StringVar(&r.Mode, "mode", "hybrid", "evaluation mode: hybrid, equation, simulation, or yield (Monte-Carlo sign-off)")
	fs.IntVar(&r.Draws, "draws", 0, "mode yield: Monte-Carlo process draws (0 = 1000)")
	fs.Float64Var(&r.MinENOB, "min-enob", 0, "mode yield: pass/fail ENOB spec (0 = bits-1)")
	fs.IntVar(&r.Evals, "evals", 180, "annealing evaluations per MDAC")
	fs.IntVar(&r.Pattern, "pattern", 90, "pattern-search evaluations per MDAC")
	fs.IntVar(&r.Restarts, "restarts", 1, "synthesis restarts per MDAC")
	fs.BoolVar(&r.Retarget, "retarget", false, "chain warm starts across MDACs (faster, slightly suboptimal)")
	fs.BoolVar(&r.Race, "race", false, "successive-halving racing over the candidate portfolio")
	fs.IntVar(&r.RaceRungs, "race-rungs", 0, "racing rungs (0 = default 2; requires -race)")
	fs.IntVar(&r.RaceEta, "race-eta", 0, "racing budget-reduction factor between rungs (0 = default 3; requires -race)")
	fs.BoolVar(&r.Surrogate, "surrogate", false, "interleave quadratic-surrogate sizing proposals with annealer moves")
	fs.Int64Var(&r.Seed, "seed", 7, "random seed")
	fs.BoolVar(&r.SHA, "sha", false, "also synthesize the front-end sample-and-hold")
	return r
}

func main() {
	req := studyFlags(flag.CommandLine)
	verify := flag.Bool("verify", false, "run a behavioral sine test on the best configuration")
	jsonOut := flag.Bool("json", false, "emit the study result as JSON on stdout (same shape as the adcsynd service)")
	workers := flag.Int("workers", 0, "parallel synthesis workers (0 = all cores, 1 = serial)")
	cacheDir := flag.String("cache-dir", "", "content-addressed synthesis cache directory (empty = no cache)")
	timeout := flag.Duration("timeout", 0, "wall-clock budget for the whole study (0 = unlimited)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file (taken after the run)")
	flag.Parse()

	// Yield is not an evaluator mode: the request synthesizes with the
	// full hybrid evaluator, then the Monte-Carlo lane runs.
	opts, err := req.Options()
	if err != nil {
		fatal(err)
	}
	isYield := req.Yield()
	mode := opts.Mode
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		// fatal exits via os.Exit, which skips defers; register the
		// flush so a failed run still leaves a usable profile.
		stopCPU = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
		defer stopCPU()
	}
	if *memProfile != "" {
		defer writeMemProfile(*memProfile)
	}
	var cache *synth.Cache
	if *cacheDir != "" {
		cache, err = synth.NewCache(0, *cacheDir)
		if err != nil {
			fatal(err)
		}
	}
	opts.Workers = *workers
	opts.Synth.Cache = cache
	var pool *sched.Pool
	if isYield {
		// One explicit pool serves both the synthesis fan-out and the
		// Monte-Carlo draws, so -workers bounds the whole run.
		pool = sched.NewPool(*workers)
		opts.Pool = pool
	}
	// Ctrl-C (or SIGTERM from a job runner) cancels the study; the engine
	// checks the context once per evaluation, so teardown is prompt even
	// mid-synthesis. An optional -timeout turns the same path into a
	// wall-clock budget.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	t0 := time.Now()
	st, err := core.Optimize(ctx, opts)
	if err != nil {
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			fatal(fmt.Errorf("study exceeded the %s budget: %w", *timeout, err))
		case errors.Is(err, context.Canceled):
			fatal(fmt.Errorf("study interrupted: %w", err))
		}
		fatal(err)
	}
	var yres *yield.Result
	if isYield {
		spec := req.YieldSpec()
		model, err := yield.FromStudy(st, opts, spec)
		if err != nil {
			fatal(err)
		}
		yres, err = yield.Run(ctx, pool, model, core.StudyKey(opts), spec, yield.Hooks{})
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				fatal(fmt.Errorf("yield analysis interrupted: %w", err))
			}
			fatal(err)
		}
	}
	if *jsonOut {
		// Machine-readable path: the same wire type the adcsynd service
		// answers with, so CLI and daemon reports are interchangeable.
		out := service.EncodeStudy(st, mode, time.Since(t0))
		if isYield {
			out.Mode = "yield"
			out.Yield = yres
		}
		if *verify {
			m, err := core.BehavioralCheck(st, opts, 4096)
			if err != nil {
				fatal(err)
			}
			out.Behavioral = &service.BehavioralJSON{ENOB: m.ENOB, SNDRdB: m.SNDRdB, SFDRdB: m.SFDRdB}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fatal(err)
		}
		return
	}
	fmt.Printf("pipesyn topology optimization — %d-bit %.0f MSPS (%s mode)\n",
		req.Bits, req.SampleRate/1e6, mode)
	fmt.Printf("elapsed %s, %d evaluator calls, %d MDAC design points (%d paper classes)\n",
		time.Since(t0).Round(time.Millisecond), st.TotalEvals, len(st.MDACs), st.PaperMDACClasses)
	if st.Race != nil {
		fmt.Printf("racing: %d rungs, %d promotions, %d candidates pruned at low fidelity\n",
			st.Race.Rungs, st.Race.Promotions, st.Race.Pruned)
	}
	if st.SurrogateProposals > 0 {
		fmt.Printf("surrogate: %d proposals, %d accepted by the annealer\n",
			st.SurrogateProposals, st.SurrogateAccepted)
	}
	if cache != nil {
		cs := cache.Stats()
		fmt.Printf("synthesis cache: %d hits (%d from disk), %d misses in %s\n",
			st.CacheHits, cs.DiskHits, st.CacheMisses, *cacheDir)
	}
	fmt.Println()
	if err := report.Fig1(os.Stdout, st); err != nil {
		fatal(err)
	}
	fmt.Println()
	if err := report.Fig2(os.Stdout, []*core.Study{st}); err != nil {
		fatal(err)
	}
	fmt.Println()
	if err := report.MDACTable(os.Stdout, st); err != nil {
		fatal(err)
	}
	fmt.Printf("\nbest configuration: %s (%.3f mW over the leading stages)\n",
		st.Best.Config, st.Best.TotalPower*1e3)
	if st.SHA != nil {
		fmt.Printf("front-end S/H: %.3f mW (shared by every candidate) → full front end %.3f mW\n",
			st.SHA.Metrics.Power*1e3, st.FullPower(st.Best)*1e3)
	}

	if *verify {
		m, err := core.BehavioralCheck(st, opts, 4096)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("behavioral check: ENOB %.2f bits (SNDR %.1f dB, SFDR %.1f dB)\n",
			m.ENOB, m.SNDRdB, m.SFDRdB)
	}

	if isYield {
		fmt.Printf("\nMonte-Carlo sign-off: %d process draws against ENOB >= %.2f\n",
			yres.Draws, yres.MinENOB)
		fmt.Printf("yield %.1f%% (%d/%d pass)\n", yres.Yield*100, yres.Pass, yres.Draws)
		fmt.Printf("ENOB  min %.2f  p05 %.2f  p50 %.2f  p95 %.2f  max %.2f  mean %.2f\n",
			yres.ENOB.Min, yres.ENOB.P05, yres.ENOB.P50, yres.ENOB.P95, yres.ENOB.Max, yres.ENOB.Mean)
		fmt.Printf("SNDR  min %.1f  p05 %.1f  p50 %.1f  p95 %.1f  max %.1f  mean %.1f dB\n",
			yres.SNDRdB.Min, yres.SNDRdB.P05, yres.SNDRdB.P50, yres.SNDRdB.P95, yres.SNDRdB.Max, yres.SNDRdB.Mean)
	}
}

// stopCPU flushes the CPU profile; fatal calls it because os.Exit skips
// the deferred flush in main.
var stopCPU = func() {}

func writeMemProfile(path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "adcsyn: memprofile:", err)
		return
	}
	defer f.Close()
	runtime.GC() // report live allocations, not GC noise
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintln(os.Stderr, "adcsyn: memprofile:", err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "adcsyn:", err)
	stopCPU()
	os.Exit(1)
}
