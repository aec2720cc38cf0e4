package main

import (
	"time"

	"repro/internal/client"
	"repro/internal/server"
)

// instance is one set-up workload, ready to measure.
type instance interface {
	// run drives the closed-loop clients through one timed window of d,
	// adding what it measured to p.
	run(p *phase, d time.Duration)
	// crash runs one crash cycle outside the timed windows, adding its
	// recovery to p. Only workloads whose windows have no crash cycles of
	// their own are asked to.
	crash(p *phase)
	// check verifies the workload's final state, adding to p.
	check(p *phase)
	close()
}

// phase is what one measured window observed.
type phase struct {
	elapsed time.Duration
	// Latencies per timed window: commit requests acknowledged, and the
	// workload's client transactions from begin to commit.
	commitLat, txnLat [][]int64
	restarts          []restartRec
	// attempted counts client transactions and correctness checks; failed
	// counts those that returned an unexpected error or found a mismatch.
	attempted, failed int
	errs              []string
	logBytes          uint64 // log bytes appended on every server
	srv               counters
	cli               client.Stats
	// Tracer clock bounds of each window (traced runs).
	windows [][2]int64
}

// inWindow reports whether a span lies inside one of the timed windows.
func (p *phase) inWindow(s span) bool {
	for _, w := range p.windows {
		if s.start >= w[0] && s.end <= w[1] {
			return true
		}
	}
	return false
}

func (p *phase) fail(err error) {
	p.failed++
	if len(p.errs) < 8 {
		p.errs = append(p.errs, err.Error())
	}
}

// counters holds the server counters the per-layer metrics use, summed over
// a workload's servers.
type counters struct {
	commits, checkpoints, ckptStallNs      int64
	pagesServed, poolHits, poolMisses      int64
	latchContention, lockWaits             int64
	logForces, logPagesWritten             int64
	gcCommits, gcBatches, gcFlushesAvoided int64
}

func serverCounters(srvs ...*server.Server) counters {
	var c counters
	for _, s := range srvs {
		x := s.ExtendedStats()
		c.commits += x.Commits
		c.checkpoints += x.Checkpoints
		c.ckptStallNs += x.CkptStallNs
		c.pagesServed += x.PagesServed
		c.poolHits += x.PoolHits
		c.poolMisses += x.PoolMisses
		c.latchContention += x.LatchContention
		c.lockWaits += x.LockWaits
		c.logForces += x.LogForces
		c.logPagesWritten += x.LogPagesWritten
		c.gcCommits += x.GroupCommit.Commits
		c.gcBatches += x.GroupCommit.Batches
		c.gcFlushesAvoided += x.GroupCommit.FlushesAvoided
	}
	return c
}

// plus returns a + sign*b.
func (a counters) plus(b counters, sign int64) counters {
	return counters{
		a.commits + sign*b.commits, a.checkpoints + sign*b.checkpoints, a.ckptStallNs + sign*b.ckptStallNs,
		a.pagesServed + sign*b.pagesServed, a.poolHits + sign*b.poolHits, a.poolMisses + sign*b.poolMisses,
		a.latchContention + sign*b.latchContention, a.lockWaits + sign*b.lockWaits,
		a.logForces + sign*b.logForces, a.logPagesWritten + sign*b.logPagesWritten,
		a.gcCommits + sign*b.gcCommits, a.gcBatches + sign*b.gcBatches, a.gcFlushesAvoided + sign*b.gcFlushesAvoided,
	}
}

// clientLedger sums client counters over the clients a workload has used,
// including those it replaced after a crash.
type clientLedger struct {
	retired client.Stats
}

func (l *clientLedger) retire(c *client.Client) { l.retired = addClientStats(l.retired, c.Stats(), 1) }

func (l *clientLedger) total(live []*benchClient) client.Stats {
	t := l.retired
	for _, bc := range live {
		t = addClientStats(t, bc.c.Stats(), 1)
	}
	return t
}

// addClientStats returns a + sign*b over the counters the per-layer metrics
// use.
func addClientStats(a, b client.Stats, sign int64) client.Stats {
	a.Faults += sign * b.Faults
	a.PageDiffs += sign * b.PageDiffs
	a.LogBytesShipped += sign * b.LogBytesShipped
	a.DirtyPagesShipped += sign * b.DirtyPagesShipped
	a.PagesFetched += sign * b.PagesFetched
	a.Evictions += sign * b.Evictions
	a.RecbufSpills += sign * b.RecbufSpills
	return a
}

// window brackets a timed window: it snapshots the counters and the tracer
// clock at the start and adds the deltas to the phase at the end.
type window struct {
	e       *env
	nodes   []*node
	ledger  *clientLedger
	live    func() []*benchClient
	srv0    counters
	cli0    client.Stats
	w0      int64
	started time.Time
}

func (e *env) openWindow(nodes []*node, ledger *clientLedger, live func() []*benchClient) *window {
	w := &window{e: e, nodes: nodes, ledger: ledger, live: live}
	for _, n := range nodes {
		n.startLog()
	}
	w.srv0 = serverCounters(w.servers()...)
	w.cli0 = ledger.total(live())
	if e.tr != nil {
		w.w0 = e.tr.now()
	}
	w.started = time.Now()
	return w
}

func (w *window) servers() []*server.Server {
	out := make([]*server.Server, len(w.nodes))
	for i, n := range w.nodes {
		out[i] = n.srv
	}
	return out
}

func (w *window) close(p *phase) {
	p.elapsed += time.Since(w.started)
	if w.e.tr != nil {
		p.windows = append(p.windows, [2]int64{w.w0, w.e.tr.now()})
	}
	for _, n := range w.nodes {
		p.logBytes += n.noteLog()
	}
	p.srv = p.srv.plus(serverCounters(w.servers()...).plus(w.srv0, -1), 1)
	p.cli = addClientStats(p.cli, addClientStats(w.ledger.total(w.live()), w.cli0, -1), 1)
}
