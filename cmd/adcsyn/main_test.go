package main

import (
	"flag"
	"io"
	"strings"
	"testing"

	"pipesyn/internal/core"
	"pipesyn/internal/hybrid"
	"pipesyn/internal/synth"
)

// parseStudy parses args through the CLI's study flags and translates
// them with the daemon's request validation.
func parseStudy(t *testing.T, args ...string) (core.Options, error) {
	t.Helper()
	fs := flag.NewFlagSet("adcsyn", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	req := studyFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %q: %v", args, err)
	}
	return req.Options()
}

// TestStudyFlagsValidateLikeTheDaemon: the CLI rejects every input the
// adcsynd request validation rejects, instead of running a study the
// daemon would refuse.
func TestStudyFlagsValidateLikeTheDaemon(t *testing.T) {
	for _, args := range [][]string{
		{"-evals", "-3", "-pattern", "-2"}, // no annealing and no polish
		{"-race-rungs", "3"},               // racing shape without -race
		{"-race-eta", "2"},
		{"-race", "-race-rungs", "40"},
		{"-draws", "200"}, // yield knob outside the yield lane
		{"-bits", "2"},
		{"-mode", "spice"},
	} {
		if _, err := parseStudy(t, args...); err == nil {
			t.Errorf("%s: accepted, want the daemon's rejection", strings.Join(args, " "))
		}
	}
	for _, args := range [][]string{
		{"-race", "-race-rungs", "3", "-race-eta", "2"},
		{"-mode", "yield", "-draws", "200", "-min-enob", "9"},
		{"-mode", "equation", "-surrogate", "-retarget", "-sha"},
	} {
		if _, err := parseStudy(t, args...); err != nil {
			t.Errorf("%s: %v", strings.Join(args, " "), err)
		}
	}
}

// TestStudyFlagsDefaultAddress pins the CLI's default request to the
// options it built by hand before it went through the daemon's request
// type, so default runs keep their study and cache addresses.
func TestStudyFlagsDefaultAddress(t *testing.T) {
	opts, err := parseStudy(t)
	if err != nil {
		t.Fatal(err)
	}
	want := core.Options{Bits: 13, SampleRate: 40e6, VRef: 1, Mode: hybrid.Hybrid,
		Synth: synth.Options{Seed: 7, MaxEvals: 180, PatternIter: 90, Restarts: 1}}
	if got, w := core.StudyKey(opts), core.StudyKey(want); got != w {
		t.Fatalf("default study key %s, want %s", got, w)
	}
	yieldOpts, err := parseStudy(t, "-mode", "yield")
	if err != nil {
		t.Fatal(err)
	}
	if yieldOpts.Mode != hybrid.Hybrid {
		t.Fatalf("yield lane synthesizes in mode %v, want hybrid", yieldOpts.Mode)
	}
}
