package wal

import (
	"sync"
	"testing"
	"time"

	"repro/internal/logrec"
)

// appendEnd appends one small record and returns the LSN just past it, the
// argument CommitWait expects.
func appendEnd(t *testing.T, l *Log, tid int) uint64 {
	t.Helper()
	r := upd(logrec.TID(tid), 10, 8)
	lsn, err := l.Append(r)
	if err != nil {
		t.Fatal(err)
	}
	return lsn + uint64(r.EncodedSize())
}

// commitsServed reads GroupStats().Commits and, in the same critical
// section, whether a write with the given target is still in flight.
func commitsServed(l *Log, target uint64) (commits int64, inFlight bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.gcStats.Commits, l.flushing && l.flushTo == target
}

// waitFor polls cond until it holds, failing the test after a generous
// deadline so a lost wakeup shows up as a failure rather than a hang.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// returnsWithin runs fn and fails the test if it has not returned in 10 s.
func returnsWithin(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s did not return", what)
	}
}

func TestCommitWaitLoneCommitter(t *testing.T) {
	l := New(1 << 20)
	l.SetWriteDelay(100 * time.Microsecond)
	end := appendEnd(t, l, 1)
	charge := l.CommitWait(end)
	if l.StableEnd() < end {
		t.Fatalf("stable end %d below commit end %d", l.StableEnd(), end)
	}
	gs := l.GroupStats()
	if gs.Commits != 1 || gs.Batches != 1 || gs.BatchSizes[1] != 1 || gs.FlushesAvoided != 0 {
		t.Fatalf("lone committer stats %+v, want one batch of size 1", gs)
	}
	if charge != 1 || int64(charge) != gs.PagesWritten || int64(charge) != l.PagesWritten() {
		t.Fatalf("charge %d, group pages %d, log pages %d: want all equal to 1",
			charge, gs.PagesWritten, l.PagesWritten())
	}
}

func TestCommitWaitConcurrentCommitters(t *testing.T) {
	const n = 8
	l := New(1 << 20)
	l.SetWriteDelay(time.Millisecond)
	var appended, wg sync.WaitGroup
	appended.Add(n)
	charges := make([]int, n)
	errs := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			end := appendEnd(t, l, i+1)
			appended.Done()
			appended.Wait() // every record is in the log before anyone commits
			charges[i] = l.CommitWait(end)
			if se := l.StableEnd(); se < end {
				errs[i] = "record above the stable end when CommitWait returned"
			}
		}(i)
	}
	returnsWithin(t, "8 concurrent committers", wg.Wait)
	for i, e := range errs {
		if e != "" {
			t.Errorf("committer %d: %s", i, e)
		}
	}
	sum := 0
	for _, c := range charges {
		sum += c
	}
	gs := l.GroupStats()
	if int64(sum) != gs.PagesWritten || gs.PagesWritten != l.PagesWritten() {
		t.Errorf("charges sum to %d, group pages %d, log pages %d: want equal",
			sum, gs.PagesWritten, l.PagesWritten())
	}
	if gs.Commits != n || gs.Batches >= n {
		t.Errorf("stats %+v: want %d commits in fewer than %d batches", gs, n, n)
	}
	if gs.Batches+gs.FlushesAvoided != gs.Commits {
		t.Errorf("stats %+v: every commit either leads a batch or avoids a flush", gs)
	}
}

// TestCommitWaitLeaderHandoff checks the group boundary: a committer whose
// record the write in flight already covers joins that write's group, and
// one whose record was appended after the write began waits for — and
// leads — the next write.
func TestCommitWaitLeaderHandoff(t *testing.T) {
	l := New(1 << 20)
	l.SetWriteDelay(300 * time.Millisecond)
	endC := appendEnd(t, l, 3) // appended before the first write, committed during it
	endA := appendEnd(t, l, 1)
	var wg sync.WaitGroup
	charges := make([]int, 3)
	wg.Add(1)
	go func() { defer wg.Done(); charges[0] = l.CommitWait(endA) }()
	waitFor(t, "the leader's write", func() bool { _, in := commitsServed(l, endA); return in })
	wg.Add(2)
	go func() { defer wg.Done(); charges[1] = l.CommitWait(endC) }()
	endB := appendEnd(t, l, 2) // appended after the write began
	go func() { defer wg.Done(); charges[2] = l.CommitWait(endB) }()
	parkedUnderA := false
	waitFor(t, "both followers to park", func() bool {
		c, in := commitsServed(l, endA)
		parkedUnderA = in
		return c == 3
	})
	returnsWithin(t, "the committers", wg.Wait)
	if l.StableEnd() < endB {
		t.Fatalf("stable end %d below the last commit end %d", l.StableEnd(), endB)
	}
	gs := l.GroupStats()
	if int64(charges[0]+charges[1]+charges[2]) != gs.PagesWritten {
		t.Errorf("charges %v do not sum to group pages %d", charges, gs.PagesWritten)
	}
	if !parkedUnderA {
		t.Skip("followers arrived after the first write landed; group shape not checkable")
	}
	if gs.Batches != 2 || gs.BatchSizes[2] != 1 || gs.BatchSizes[1] != 1 || gs.FlushesAvoided != 1 {
		t.Errorf("stats %+v: want a batch of 2 (leader + covered follower) then a batch of 1", gs)
	}
	if charges[1] != 0 {
		t.Errorf("covered follower charged %d pages, want 0", charges[1])
	}
}

func TestCommitWaitCrashReleasesWaiters(t *testing.T) {
	l := New(1 << 20)
	l.SetWriteDelay(200 * time.Millisecond)
	// The leader's write covers three records, so it would reach past the
	// post-crash commit below if it wrongly landed after the crash.
	appendEnd(t, l, 1)
	appendEnd(t, l, 1)
	endLeader := appendEnd(t, l, 1)
	var leader, followers sync.WaitGroup
	var leaderCharge int
	leader.Add(1)
	go func() { defer leader.Done(); leaderCharge = l.CommitWait(endLeader) }()
	waitFor(t, "the leader's write", func() bool { _, in := commitsServed(l, endLeader); return in })
	const nf = 4
	for i := 0; i < nf; i++ {
		end := appendEnd(t, l, i+2)
		followers.Add(1)
		go func() { defer followers.Done(); l.CommitWait(end) }()
	}
	waitFor(t, "the followers to park", func() bool { c, _ := commitsServed(l, 0); return c == 1+nf })

	stable := l.StableEnd()
	l.Crash()
	returnsWithin(t, "parked followers after the crash", followers.Wait)
	if se := l.StableEnd(); se > stable {
		t.Fatalf("stable end moved from %d to %d across the crash", stable, se)
	}
	// The leader may still be inside its modeled write. A commit after the
	// crash must not wait for it, and the voided write must not land.
	end := appendEnd(t, l, 9)
	returnsWithin(t, "a commit after the crash", func() { l.CommitWait(end) })
	returnsWithin(t, "the crashed leader", leader.Wait)
	if leaderCharge != 0 {
		t.Errorf("crashed leader charged %d pages, want 0", leaderCharge)
	}
	if se := l.StableEnd(); se != end {
		t.Errorf("stable end %d after the post-crash commit, want exactly its end %d", se, end)
	}
}

func TestCommitWaitSwallowedFlushReturns(t *testing.T) {
	l := New(1 << 20)
	l.SetWriteDelay(time.Millisecond)
	l.SetFlushLimiter(func(uint64) uint64 { return 0 }) // every flush swallowed
	var wg sync.WaitGroup
	charges := make([]int, 4)
	for i := range charges {
		end := appendEnd(t, l, i+1)
		wg.Add(1)
		go func(i int) { defer wg.Done(); charges[i] = l.CommitWait(end) }(i)
	}
	returnsWithin(t, "committers under a swallowing flush limiter", wg.Wait)
	if se := l.StableEnd(); se != FirstLSN {
		t.Fatalf("stable end %d, want %d: the limiter swallowed every flush", se, FirstLSN)
	}
	for i, c := range charges {
		if c != 0 {
			t.Errorf("committer %d charged %d pages for a swallowed flush", i, c)
		}
	}
}
