package main

import (
	"errors"
	"fmt"
	"math"

	"pipesyn/internal/core"
	"pipesyn/internal/enum"
	"pipesyn/internal/service"
)

// checkStudy verifies one study's output: the ranking head is Best, the
// candidates cover the enumeration exactly once, every candidate's power
// is the sum of its stages (positive and finite), and TotalEvals equals
// the evaluations of its design points — pointEvals is their sum as the
// point_done progress events reported it.
func checkStudy(st *core.Study, opts core.Options, pointEvals int) error {
	if len(st.Candidates) == 0 {
		return errors.New("study has no candidates")
	}
	if err := sameWinner(st.Best, st.Candidates[0]); err != nil {
		return fmt.Errorf("best is not the head of the ranking: %w", err)
	}
	for i := 1; i < len(st.Candidates); i++ {
		a, b := st.Candidates[i-1], st.Candidates[i]
		if rankKey(b).less(rankKey(a)) {
			return fmt.Errorf("ranking out of order at %d: %s before %s", i, a.Config, b.Config)
		}
	}
	want, err := enum.Candidates(opts.Bits, opts.Constraints)
	if err != nil {
		return err
	}
	var got []string
	for _, c := range st.Candidates {
		got = append(got, c.Config.String())
		total := 0.0
		for _, s := range c.Stages {
			total += s.Total
		}
		if err := checkPower(c.Config.String(), c.TotalPower, total); err != nil {
			return err
		}
	}
	if err := coverOnce(got, want); err != nil {
		return err
	}
	if st.TotalEvals != pointEvals {
		return fmt.Errorf("TotalEvals %d, design points report %d", st.TotalEvals, pointEvals)
	}
	if !opts.Race {
		// Without racing each design point is synthesized once, so the
		// MDAC records alone must add up too.
		n := 0
		for _, m := range st.MDACs {
			n += m.Result.Evals
		}
		if st.TotalEvals != n {
			return fmt.Errorf("TotalEvals %d, MDAC records sum to %d", st.TotalEvals, n)
		}
	}
	return nil
}

// checkReplay verifies a study replayed from the synthesis cache: no
// evaluations and the same winner as the original.
func checkReplay(orig, replay *core.Study) error {
	if replay.TotalEvals != 0 {
		return fmt.Errorf("replay spent %d evaluations", replay.TotalEvals)
	}
	return sameWinner(orig.Best, replay.Best)
}

func sameWinner(a, b core.CandidateResult) error {
	if a.Config.String() != b.Config.String() || a.TotalPower != b.TotalPower || a.AllFeasible != b.AllFeasible {
		return fmt.Errorf("winner %s %.6g W vs %s %.6g W", a.Config, a.TotalPower, b.Config, b.TotalPower)
	}
	return nil
}

type rank struct {
	pruned, infeasible bool
	power              float64
}

func rankKey(c core.CandidateResult) rank { return rank{c.Pruned, !c.AllFeasible, c.TotalPower} }

// less mirrors core's ranking: full-fidelity before pruned, fully
// feasible before not, then ascending power.
func (a rank) less(b rank) bool {
	if a.pruned != b.pruned {
		return !a.pruned
	}
	if a.infeasible != b.infeasible {
		return !a.infeasible
	}
	return a.power < b.power
}

func checkPower(name string, total, stageSum float64) error {
	if !(total > 0) || math.IsInf(total, 0) {
		return fmt.Errorf("candidate %s power %v is not positive and finite", name, total)
	}
	if stageSum != 0 && math.Abs(total-stageSum) > 1e-12*math.Abs(total) {
		return fmt.Errorf("candidate %s power %.9g, its stages sum to %.9g", name, total, stageSum)
	}
	return nil
}

// coverOnce checks that got lists every configuration of want exactly
// once and nothing else.
func coverOnce(got []string, want []enum.Config) error {
	seen := map[string]int{}
	for _, g := range got {
		seen[g]++
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d candidates, enumeration has %d", len(got), len(want))
	}
	for _, w := range want {
		if seen[w.String()] != 1 {
			return fmt.Errorf("candidate %s appears %d times", w, seen[w.String()])
		}
	}
	return nil
}

// checkStudyJSON verifies a daemon study result: the same ranking and
// coverage rules as checkStudy on the wire form, and TotalEvals equal to
// the evaluations the job counted.
func checkStudyJSON(res *service.StudyJSON, req service.StudyRequest, jobEvals int64) error {
	if res == nil || len(res.Candidates) == 0 {
		return errors.New("job result has no candidates")
	}
	head := res.Candidates[0]
	if configString(head.Config) != configString(res.Best.Config) || head.TotalPowerW != res.Best.TotalPowerW {
		return fmt.Errorf("best %v is not the head of the ranking %v", res.Best.Config, head.Config)
	}
	opts, err := req.Options()
	if err != nil {
		return err
	}
	want, err := enum.Candidates(opts.Bits, opts.Constraints)
	if err != nil {
		return err
	}
	var got []string
	for _, c := range res.Candidates {
		got = append(got, configString(c.Config))
		if err := checkPower(configString(c.Config), c.TotalPowerW, 0); err != nil {
			return err
		}
	}
	total := 0.0
	for _, s := range res.Best.Stages {
		total += s.TotalW
	}
	if err := checkPower(configString(res.Best.Config), res.Best.TotalPowerW, total); err != nil {
		return err
	}
	if err := coverOnce(got, want); err != nil {
		return err
	}
	if int64(res.TotalEvals) != jobEvals {
		return fmt.Errorf("TotalEvals %d, the job counted %d evaluations", res.TotalEvals, jobEvals)
	}
	if req.Yield() {
		if res.Yield == nil || res.Yield.Draws != req.Draws {
			return fmt.Errorf("yield job asked for %d draws, result reports %v", req.Draws, res.Yield)
		}
	}
	return nil
}

// sameWinnerJSON compares two daemon results' winners.
func sameWinnerJSON(a, b *service.StudyJSON) error {
	if configString(a.Best.Config) != configString(b.Best.Config) || a.Best.TotalPowerW != b.Best.TotalPowerW {
		return fmt.Errorf("winner %v %.6g W vs %v %.6g W", a.Best.Config, a.Best.TotalPowerW, b.Best.Config, b.Best.TotalPowerW)
	}
	return nil
}

func configString(c []int) string { return enum.Config(c).String() }
