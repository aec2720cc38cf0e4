package harness

import (
	"flag"
	"testing"
)

// Sweep knobs: `go test ./internal/harness/ -run TestSweep -sweep.budget=50`
// replays 50 evenly spaced crash points per scheme. Budget 0 picks a default
// (smaller under -short); a negative budget replays every enumerated point;
// budget 1 is raised to 2, since the sample always spans the first and last.
var (
	sweepBudget = flag.Int("sweep.budget", 0, "crash-point replays per scheme (0 = default, <0 = all, 1 is raised to 2)")
	sweepSeed   = flag.Int64("sweep.seed", 1, "sweep workload seed")
)

func replayBudget(t *testing.T) int {
	switch {
	case *sweepBudget != 0:
		if *sweepBudget < 0 {
			return 0 // Sweep treats ≤0 as "all points"
		}
		return *sweepBudget
	case testing.Short():
		return 12
	default:
		return 40
	}
}

// TestSweepCrashPoints is the crash-consistency sweep itself: for every
// scheme it enumerates all crash points (asserting the ≥200 coverage floor),
// replays a budget-limited sample, and fails with a reproduction recipe for
// each violated recovery invariant.
func TestSweepCrashPoints(t *testing.T) {
	budget := replayBudget(t)
	for _, sys := range SweepSystems() {
		sys := sys
		t.Run(sys.Name, func(t *testing.T) {
			t.Parallel()
			rep, err := Sweep(sys, *sweepSeed, budget)
			if err != nil {
				t.Fatalf("sweep: %v", err)
			}
			if rep.Points < 200 {
				t.Errorf("only %d crash points enumerated, want >= 200 (workload too small)", rep.Points)
			}
			t.Logf("%s: %d crash points, replayed %d, %d failures",
				sys.Name, rep.Points, len(rep.Replayed), len(rep.Failures))
			for _, f := range rep.Failures {
				t.Errorf("%v", f)
			}
		})
	}
}

// TestSweepDeterministic pins the reproducibility contract: the same
// (system, seed) pair must enumerate the same crash points — same count and
// the same commit-bracketing fuse counts per transaction — and replaying the
// same point must return the same verdict.
func TestSweepDeterministic(t *testing.T) {
	for _, sys := range []SweepSystem{SweepSystems()[0], SweepSystems()[4]} { // PD-ESM, WPL
		sys := sys
		t.Run(sys.Name, func(t *testing.T) {
			t.Parallel()
			runA, nA, err := CountCrashPoints(sys, *sweepSeed)
			if err != nil {
				t.Fatalf("counting pass A: %v", err)
			}
			runB, nB, err := CountCrashPoints(sys, *sweepSeed)
			if err != nil {
				t.Fatalf("counting pass B: %v", err)
			}
			if nA != nB {
				t.Fatalf("crash-point count not deterministic: %d then %d", nA, nB)
			}
			if len(runA.txns) != len(runB.txns) {
				t.Fatalf("journal length differs: %d vs %d", len(runA.txns), len(runB.txns))
			}
			for i := range runA.txns {
				a, b := runA.txns[i], runB.txns[i]
				if a.pre != b.pre || a.post != b.post || a.val != b.val || a.parts != b.parts {
					t.Fatalf("journal entry %d differs: %+v vs %+v", i, a, b)
				}
			}

			verdict := func(p int64) string {
				f, err := ReplayCrashPoint(sys.Name, *sweepSeed, p)
				if err != nil {
					t.Fatalf("replay point %d: %v", p, err)
				}
				if f == nil {
					return "pass"
				}
				return f.Detail
			}
			for _, p := range []int64{1, runA.buildEnd + 1, nA / 2, nA} {
				if v1, v2 := verdict(p), verdict(p); v1 != v2 {
					t.Errorf("point %d verdict not deterministic: %q then %q", p, v1, v2)
				}
			}
		})
	}
}

// TestReplayCrashPointUnknownSystem pins the reproduction entry point's
// error path (the names it accepts are the ones failures print).
func TestReplayCrashPointUnknownSystem(t *testing.T) {
	if _, err := ReplayCrashPoint("NO-SUCH", 1, 1); err == nil {
		t.Fatal("expected an error for an unknown system name")
	}
	for _, sys := range SweepSystems() {
		if sys.Name == "" {
			t.Fatal("sweep system with empty name")
		}
	}
}

// TestSamplePoints pins the sampling contract Sweep relies on: within
// budget, evenly spaced, always covering the first and last points.
func TestSamplePoints(t *testing.T) {
	for _, tc := range []struct {
		n      int64
		budget int
	}{
		{10, 3}, {10, 0}, {1, 5}, {250, 50}, {7, 7}, {10, 1}, {1, 1},
	} {
		pts := samplePoints(tc.n, tc.budget)
		if len(pts) == 0 {
			t.Fatalf("n=%d budget=%d: no points", tc.n, tc.budget)
		}
		if pts[0] != 1 || pts[len(pts)-1] != tc.n {
			t.Errorf("n=%d budget=%d: sample %v must span 1..%d", tc.n, tc.budget, pts, tc.n)
		}
		if tc.budget > 0 && len(pts) > max(tc.budget, 2) {
			t.Errorf("n=%d budget=%d: %d points exceed budget", tc.n, tc.budget, len(pts))
		}
		for i := 1; i < len(pts); i++ {
			if pts[i] <= pts[i-1] {
				t.Errorf("n=%d budget=%d: sample not strictly increasing: %v", tc.n, tc.budget, pts)
			}
		}
	}
}
