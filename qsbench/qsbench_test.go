package main

import (
	"testing"
	"time"
)

func TestPickRank(t *testing.T) {
	for _, c := range []struct {
		n, q, rank int
		ok         bool
	}{
		{0, 500, 0, false},
		{19, 500, 10, false}, // 9 samples above the median
		{20, 500, 10, true},
		{20, 900, 10, true},  // n-10 is the median's rank
		{40, 900, 30, true},  // the 75th percentile: ten beyond it
		{99, 900, 89, true},  // just short of the 90th
		{100, 900, 90, true}, // the 90th itself
		{160, 900, 144, true},
		{1000, 990, 990, true},
		{9999, 999, 9989, true},
		{10000, 999, 9990, true}, // 0.999*10000 is not an integer in float64
	} {
		rank, ok := pickRank(c.n, c.q)
		if rank != c.rank || ok != c.ok {
			t.Errorf("pickRank(%d, %d) = %d, %v; want %d, %v", c.n, c.q, rank, ok, c.rank, c.ok)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	d := newDist([]int64{5, 1, 4, 2, 3})
	if got := percentile(d, 500); got != 3 {
		t.Errorf("median of 1..5 = %d, want 3", got)
	}
	if got := percentile(d, 999); got != 5 {
		t.Errorf("p99.9 of 1..5 = %d, want 5", got)
	}
}

func TestAddTimingMedianOfWindows(t *testing.T) {
	win := func(base int64) []int64 {
		xs := make([]int64, 20)
		for i := range xs {
			xs[i] = base + int64(i)
		}
		return xs
	}
	r := &report{}
	// Each window supports its median on its own: the figure is the median
	// of the three window medians.
	r.addTiming("x", [][]int64{win(0), win(1000), win(100)}, 500, "us")
	if tm := r.timings[0]; !tm.PerWindow || tm.ValueNanos != 109 {
		t.Errorf("per-window median: %+v, want the median of 9, 1009 and 109", tm)
	}
	// One window too small: pooled, at the highest percentile with ten
	// samples beyond it (rank 11 of 21).
	r.noteTiming("y", [][]int64{win(0), {7}}, 900)
	if tm := r.timings[1]; tm.PerWindow || tm.ValueNanos != 9 || tm.Samples != 21 {
		t.Errorf("pooled fallback: %+v", tm)
	}
	if len(r.metrics) != 1 {
		t.Errorf("a noted timing reached the metrics: %v", r.metrics)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{kind: kTxn, id: 1, start: 0, end: 100},
		{kind: kWireLock, id: 2, parent: 1, start: 10, end: 30},
		{kind: kWireReadPage, id: 3, parent: 1, start: 20, end: 40}, // overlaps the lock
		{kind: kWireCommit, id: 4, parent: 1, start: 90, end: 120},  // clipped at 100
		{kind: kDiskRead, id: 5, parent: 0, start: 50, end: 60},     // not a child
		{kind: kTxn, id: 6, start: 200, end: 210},                   // no children
		{kind: kWireBegin, id: 7, parent: 99, start: 200, end: 205}, // parent unknown
	}
	got := selfTimes(spans, kTxn)
	if got[1] != 100-30-10 || got[6] != 10 || len(got) != 2 {
		t.Errorf("selfTimes = %v, want map[1:60 6:10]", got)
	}
}

func TestCheckObjectsDetectsPlantedMismatch(t *testing.T) {
	const seed = 9
	last := []uint64{41, 7}
	good := [][]byte{objectValue(seed, 0, 41), objectValue(seed, 1, 7)}
	if bad := checkObjects(seed, last, good); bad != 0 {
		t.Fatalf("clean objects: %d mismatches", bad)
	}
	lost := [][]byte{objectValue(seed, 0, 40), good[1]} // a committed write missing
	if bad := checkObjects(seed, last, lost); bad != 1 {
		t.Errorf("lost write: %d mismatches, want 1", bad)
	}
	torn := [][]byte{good[0], append([]byte(nil), good[1]...)}
	torn[1][objectBytes-1] ^= 1
	if bad := checkObjects(seed, last, torn); bad != 1 {
		t.Errorf("corrupt filler: %d mismatches, want 1", bad)
	}
}

func TestPartModelDetectsPlantedMismatch(t *testing.T) {
	before := []xy{{10, 20}, {30, 40}, {50, 60}}
	after := []xy{{11, 21}, {30, 40}, {53, 63}} // multiplicities 1, 0, 3
	m, err := newPartModel(before, after)
	if err != nil {
		t.Fatal(err)
	}
	const n = 4 // committed traversals, the calibrating one included
	good := []xy{{14, 24}, {30, 40}, {62, 72}}
	if bad := m.check(n, good); bad != 0 {
		t.Fatalf("clean parts: %d mismatches", bad)
	}
	inflight := []xy{{15, 25}, {30, 40}, {62, 72}} // an uncommitted increment survived
	if bad := m.check(n, inflight); bad != 1 {
		t.Errorf("surviving in-flight increment: %d mismatches, want 1", bad)
	}
	lost := []xy{{14, 24}, {30, 40}, {59, 69}} // a committed increment lost
	if bad := m.check(n, lost); bad != 1 {
		t.Errorf("lost committed increment: %d mismatches, want 1", bad)
	}
	if _, err := newPartModel(before, []xy{{11, 22}, {30, 40}, {53, 63}}); err == nil {
		t.Error("calibration with x and y moving apart was accepted")
	}
	if !checkMarker(3, 5, markerValue(3, 5)) || checkMarker(3, 5, markerValue(3, 4)) {
		t.Error("marker check does not tell stamp 5 from stamp 4")
	}
}

// The workloads' own checks, run against the engine, must pass on an
// untouched run and fail once the benchmark's record of what committed is
// planted wrong.
func TestCommitCheckDetectsPlantedMismatch(t *testing.T) {
	inst, err := setupCommit(&env{dir: t.TempDir(), seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	w := inst.(*commitWL)
	p := &phase{}
	w.run(p, 50*time.Millisecond)
	w.crash(p)
	w.check(p)
	if p.failed != 0 || len(p.restarts) != 1 {
		t.Fatalf("clean run: failed=%d restarts=%d errs=%v", p.failed, len(p.restarts), p.errs)
	}
	w.last[1]++
	w.check(p)
	if p.failed != 1 {
		t.Errorf("planted mismatch: failed=%d, want 1", p.failed)
	}
}

func TestRestartCheckDetectsPlantedMismatch(t *testing.T) {
	if testing.Short() {
		t.Skip("builds five small OO7 databases")
	}
	inst, err := setupRestart(&env{dir: t.TempDir(), seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	w := inst.(*restartWL)
	p := &phase{}
	w.run(p, time.Millisecond) // one whole round: a crash cycle per scheme
	if p.failed != 0 || len(p.restarts) != len(schemes) {
		t.Fatalf("clean round: failed=%d restarts=%d errs=%v", p.failed, len(p.restarts), p.errs)
	}
	w.nodes[0].committed++
	w.nodes[1].stamp++
	w.check(p)
	if p.failed != 2 {
		t.Errorf("planted mismatches: failed=%d, want 2 (%v)", p.failed, p.errs)
	}
}

// A probe must give the same verdict every time it runs, or probe_failures
// would drift between runs of the same code.
func TestProbesAreDeterministic(t *testing.T) {
	verdict := func(err error) string {
		if err == nil {
			return "passes"
		}
		return err.Error()
	}
	for _, pr := range probes {
		first := verdict(pr.run(t.TempDir()))
		for k := 0; k < 3; k++ {
			if again := verdict(pr.run(t.TempDir())); again != first {
				t.Errorf("%s: %q, then %q", pr.name, first, again)
			}
		}
	}
}
