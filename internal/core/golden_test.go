package core

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"strings"
	"testing"

	"pipesyn/internal/enum"
	"pipesyn/internal/hybrid"
	"pipesyn/internal/stagespec"
	"pipesyn/internal/synth"
)

// Golden pins: content addresses and search trajectories recorded before
// the serial/batch and uniform/racing code paths were merged. A refactor
// of the search machinery must leave every one of them unchanged; a
// deliberate change to an answer or an address updates the pin in the
// same commit and says why.
//
// Re-recorded once since: the BatchEval > 1 pins (batch4,
// surrogate_batch4, fastpath) moved when the batched pattern search
// became chunks of the serial sweep instead of a sweep restarted after
// every improvement. Their addresses carry synth.KnobKey.Polish so caches
// written before the change do not replay the old answer. The
// newtonreuse trajectory pin was recorded before the full-Newton and
// reuse loops were merged and held across that merge.

// goldenKnobs are the search knobs the pins cover, applied to a base
// request.
var goldenKnobs = []struct {
	name string
	set  func(*Options)
}{
	{"default", func(*Options) {}},
	{"batch4", func(o *Options) { o.Synth.BatchEval = 4 }},
	{"newtonreuse", func(o *Options) { o.Synth.NewtonReuse = true }},
	{"surrogate", func(o *Options) { o.Synth.Surrogate = true }},
	{"surrogate_batch4", func(o *Options) { o.Synth.Surrogate = true; o.Synth.BatchEval = 4 }},
	{"retarget", func(o *Options) { o.Retarget = true }},
	{"race", func(o *Options) { o.Race = true }},
	{"race3", func(o *Options) { o.Race = true; o.RaceRungs = 3 }},
	{"fastpath", func(o *Options) { o.Synth.BatchEval = 4; o.Synth.NewtonReuse = true; o.Race = true }},
}

// TestGoldenContentAddresses pins the hex study key and the synthesis
// cache key of the 13-bit default request's first 4-3-2 stage under
// every knob: journaled jobs and on-disk caches written by earlier
// builds must stay reachable.
func TestGoldenContentAddresses(t *testing.T) {
	want := map[string][2]string{
		"default": {
			"2ca7cf65d8a854ef19d27aa4e7741178f001b1cc833f33d0761800e927043de3",
			"9ab7e8053c3b0f8f7a457719d1f6d068b8f683f51cd4de6e5f71210e751cafaf",
		},
		"batch4": {
			"263f48bf6a7463af29f502277be822b4179dd3f3d6bc206ca569a71e42092f95",
			"c0115d5c8281ef8f5d4d788fb5989f154fa9ec849b34d054a0ed137b2986d868",
		},
		"newtonreuse": {
			"ce5aae20dbb5161d994a597305f7e903d5a7656a3e509181d529c79e12eb7b68",
			"23ac31250779b045c6b779e54c4f0a0451d5954ca3889bc8cb291242c6a81233",
		},
		"surrogate": {
			"a3c88c9099f8b2096852d02c0759760307c3a0e8be2d1a2235f4c3faa9bf33d7",
			"4fe4f36c2dbaa708becab38fb531b3d0048cb3ce361e4be9ca49b1fd022c9b8b",
		},
		"surrogate_batch4": {
			"7d475b13d5a25d7381d7728e916b0a652029829b46b1cd2d70a7d856c2c91016",
			"1137ec969e27965e8d8420be0bc0e4854f4064e97feb5821fb16bfd150a6116f",
		},
		"retarget": {
			"7d05ac171109a218220086de403ca5d1587cbed56ccfc8394485944eb35f5942",
			"9ab7e8053c3b0f8f7a457719d1f6d068b8f683f51cd4de6e5f71210e751cafaf",
		},
		"race": {
			"0b061c48a24a47b634ea20f92dd3a504559a83e0d6eb4031696ab933e7c76664",
			"9ab7e8053c3b0f8f7a457719d1f6d068b8f683f51cd4de6e5f71210e751cafaf",
		},
		"race3": {
			"4371c4987cf0507a6ef51f2b1936de0115940d52e79bd10bfc5371bca6b2af8c",
			"9ab7e8053c3b0f8f7a457719d1f6d068b8f683f51cd4de6e5f71210e751cafaf",
		},
		"fastpath": {
			"9bb052f89105454acac0681330782b4859c20142f0067120f170f32bf5c82311",
			"cc9b68076f5512fd1a2553dd616ffedcc84f1de5701ea08b14e53a7e5e03dbb3",
		},
	}
	for _, k := range goldenKnobs {
		o := Options{Bits: 13, Synth: synth.Options{Seed: 1}}
		k.set(&o)
		o.fillDefaults()
		specs, err := stagespec.Translate(stagespec.ADCSpec{Bits: 13, SampleRate: o.SampleRate,
			VRef: o.VRef, Process: o.Process}, enum.Config{4, 3, 2})
		if err != nil {
			t.Fatal(err)
		}
		so := o.Synth
		so.Mode = o.Mode
		got := [2]string{StudyKey(o), synth.CacheKey(specs[0], o.Process, so)}
		if got != want[k.name] {
			t.Errorf("%s: keys\n  study %s\n  cache %s\nwant\n  study %s\n  cache %s",
				k.name, got[0], got[1], want[k.name][0], want[k.name][1])
		}
	}
}

// TestGoldenTrajectories pins the winner, evaluator spend, and exact
// winner power of a small 12-bit hybrid study under each search knob.
func TestGoldenTrajectories(t *testing.T) {
	if testing.Short() {
		t.Skip("hybrid studies")
	}
	type pin struct {
		config string
		evals  int
		power  uint64 // math.Float64bits(Best.TotalPower)
	}
	want := map[string]pin{
		"default":          {"3-3-2-2", 481, 0x3f697d77c56e5b0f},
		"newtonreuse":      {"3-3-2-2", 481, 0x3f697d778f69e612},
		"surrogate":        {"4-4", 485, 0x3f5972885fa2b0d6},
		"surrogate_batch4": {"4-3-2", 480, 0x3f6081363c2a3834},
		"retarget":         {"3-3-2-2", 328, 0x3f741599c3e03ab0},
		"race":             {"4-4", 367, 0x3f58f89d595298f8},
		"fastpath":         {"4-3-2", 356, 0x3f6081364f4931e2},
	}
	for _, k := range goldenKnobs {
		w, ok := want[k.name]
		if !ok {
			continue
		}
		o := Options{Bits: 12, SampleRate: 40e6, Mode: hybrid.Hybrid, Workers: 2,
			Synth: synth.Options{Seed: 5, MaxEvals: 16, PatternIter: 8}}
		k.set(&o)
		st, err := Optimize(context.Background(), o)
		if err != nil {
			t.Fatal(err)
		}
		got := pin{st.Best.Config.String(), st.TotalEvals, math.Float64bits(st.Best.TotalPower)}
		if got != w {
			t.Errorf("%s: got {%q, %d, %#x}, want {%q, %d, %#x}", k.name,
				got.config, got.evals, got.power, w.config, w.evals, w.power)
		}
	}
}

// TestGoldenEquationTrajectories pins 13-bit EquationOnly studies (two
// restarts per synthesis) under the search knobs whose scoring paths
// differ: the winner, evaluator spend and exact winner power, plus a
// digest over every MDAC record's exact cost, violation sum and failure
// list. Every record of these studies is feasible, so the digest pins
// zero violations and empty failure lists; hybrid.TestCheckReportGolden
// pins the failure lines themselves. Recorded before the search loop
// switched from per-candidate spec reports to a violation scalar. The
// equation evaluator is cheap enough to run under -short, so these pins
// guard the annealer, pattern search, surrogate and racing bookkeeping
// on every test run.
func TestGoldenEquationTrajectories(t *testing.T) {
	type pin struct {
		config  string
		evals   int
		power   uint64 // math.Float64bits(Best.TotalPower)
		records string // equationRecordDigest over Study.MDACs
	}
	want := map[string]pin{
		"default/1":    {"3-3-3", 20741, 0x3f56bc0c1cb38124, "5ace7916a0de2817"},
		"surrogate/1":  {"4-3-2", 20720, 0x3f43096bd364ba14, "f71c8fc4febe9a64"},
		"batch4/1":     {"4-3-2", 20700, 0x3f5554bb64c37c7e, "f5034cda291ff7a2"},
		"race/1":       {"3-3-3", 9980, 0x3f551a830d89185f, "a86eb652f353451a"},
		"default/13":   {"4-3-2", 20740, 0x3f44c684551a9bc3, "00664b7d7ede56b6"},
		"surrogate/13": {"4-3-2", 20730, 0x3f44258b3a95179a, "699d2a112fd97c0e"},
		"batch4/13":    {"4-3-2", 20680, 0x3f52aea87b373023, "96cf7ae8150133f0"},
		"race/13":      {"4-3-2", 10301, 0x3f46d2d29afb0072, "ef5175e11f77b479"},
	}
	for _, k := range goldenKnobs {
		for _, seed := range []int64{1, 13} {
			name := fmt.Sprintf("%s/%d", k.name, seed)
			w, ok := want[name]
			if !ok {
				continue
			}
			o := Options{Bits: 13, Mode: hybrid.EquationOnly, Workers: 1,
				Synth: synth.Options{Seed: seed, Restarts: 2}}
			k.set(&o)
			st, err := Optimize(context.Background(), o)
			if err != nil {
				t.Fatal(err)
			}
			digest, lines := equationRecordDigest(st.MDACs)
			got := pin{st.Best.Config.String(), st.TotalEvals, math.Float64bits(st.Best.TotalPower), digest}
			if got != w {
				t.Errorf("%s: got {%q, %d, %#x, %q}, want {%q, %d, %#x, %q}\nrecords:\n%s", name,
					got.config, got.evals, got.power, got.records,
					w.config, w.evals, w.power, w.records, lines)
			}
		}
	}
}

// equationRecordDigest renders one line per MDAC record — design point,
// exact synthesis cost, exact violation sum, failure list — and returns
// the first 16 hex digits of their SHA-256 alongside the lines.
func equationRecordDigest(recs []MDACRecord) (string, string) {
	var b strings.Builder
	for _, r := range recs {
		fmt.Fprintf(&b, "%v %#x %#x %q\n", r.Key, math.Float64bits(r.Result.Cost),
			math.Float64bits(r.Result.Report.Violations), r.Result.Report.Failures)
	}
	sum := sha256.Sum256([]byte(b.String()))
	return fmt.Sprintf("%x", sum[:8]), b.String()
}
