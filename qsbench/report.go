package main

import "fmt"

// metric is one named figure with its unit.
type metric struct {
	Name  string  `json:"-"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// timing records how a latency figure was taken: over how many samples and
// windows, and at which percentile after the rule in pickRank.
type timing struct {
	Metric     string  `json:"metric"`
	Samples    int     `json:"samples"`
	Windows    int     `json:"windows"`
	Asked      float64 `json:"asked_percentile"`
	Used       float64 `json:"used_percentile"`
	Supported  bool    `json:"supported"`
	PerWindow  bool    `json:"median_of_windows"`
	ValueNanos int64   `json:"value_ns"`
}

type report struct {
	metrics []metric
	timings []timing
}

func (r *report) add(name string, v float64, unit string) {
	r.metrics = append(r.metrics, metric{Name: name, Value: v, Unit: unit})
}

// addTiming reports the q-permille percentile of latencies (nanoseconds,
// one slice per timed window) in unit, which is "us", "ms" or "s", and
// records how it was taken.
func (r *report) addTiming(name string, windows [][]int64, q int, unit string) {
	t := timingOf(name, windows, q)
	r.add(name, float64(t.ValueNanos)/unitNanos[unit], unit)
	r.timings = append(r.timings, t)
}

// noteTiming records a percentile in the result file only, outside the
// metrics the result line reports.
func (r *report) noteTiming(name string, windows [][]int64, q int) {
	r.timings = append(r.timings, timingOf(name, windows, q))
}

// timingOf takes the q-permille percentile of latencies given per timed
// window. When every window on its own has ten samples beyond the
// percentile, the figure is the median of the windows' percentiles, which a
// stall confined to one window cannot move much; otherwise it is the sample
// pickRank chooses from all windows pooled.
func timingOf(name string, windows [][]int64, q int) timing {
	all := newDist(concat(windows))
	t := timing{Metric: name, Samples: len(all), Windows: len(windows), Asked: float64(q) / 10}
	perWindow := len(windows) > 1
	for _, w := range windows {
		perWindow = perWindow && beyond(len(w), q) >= 10
	}
	if perWindow {
		vals := make([]int64, len(windows))
		for i, w := range windows {
			vals[i] = percentile(newDist(w), q)
		}
		t.ValueNanos, t.Used, t.Supported, t.PerWindow = median(vals), t.Asked, true, true
	} else {
		t.ValueNanos, t.Used, t.Supported = all.at(q)
	}
	return t
}

var unitNanos = map[string]float64{"us": 1e3, "ms": 1e6, "s": 1e9}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEnd derives the end-to-end metrics of an untraced run.
func endToEnd(p *phase, setupS []float64, probeFailures int, rssMB float64) *report {
	r := &report{}
	secs := p.elapsed.Seconds()
	r.add("setup_s", medianF(setupS), "s")
	r.add("commit_per_s", ratio(float64(p.srv.commits), secs), "1/s")
	r.addTiming("commit_p50_us", p.commitLat, 500, "us")
	r.addTiming("commit_p99_us", p.commitLat, 990, "us")
	// Recorded, not reported: on a shared two-vCPU machine this tail moves
	// with the host's own I/O and scheduling far more than any bound a
	// comparison could use. commit_p99_us already sits inside the
	// sharp-checkpoint stalls (one commit in 64 takes a checkpoint).
	r.noteTiming("commit_p999_us", p.commitLat, 999)
	r.add("traversal_per_s", ratio(float64(len(concat(p.txnLat))), secs), "1/s")
	r.addTiming("traversal_p50_ms", p.txnLat, 500, "ms")
	r.addTiming("traversal_p90_ms", p.txnLat, 900, "ms")
	rec := make([]int64, len(p.restarts))
	for i, x := range p.restarts {
		rec[i] = x.recovery
	}
	r.addTiming("recovery_p50_ms", [][]int64{rec}, 500, "ms")
	r.addTiming("recovery_p90_ms", [][]int64{rec}, 900, "ms")
	r.add("log_bytes_per_commit", ratio(float64(p.logBytes), float64(p.srv.commits)), "B")
	r.add("peak_rss_mb", rssMB, "MB")
	r.add("probe_failures", float64(probeFailures), "count")
	return r
}

var wireOps = []struct {
	k    kind
	name string
}{
	{kWireBegin, "begin"}, {kWireLock, "lock"}, {kWireAllocPage, "alloc_page"},
	{kWireReadPage, "read_page"}, {kWireShipLog, "ship_log"}, {kWireShipPage, "ship_page"},
	{kWireCommit, "commit"}, {kWireAbort, "abort"},
}

// perLayer derives the per-layer metrics of a traced window. overhead is
// the traced window's headline latency over the untraced one's.
func perLayer(p *phase, spans []span, overhead float64) *report {
	r := &report{}
	byKind := make([][]int64, numKinds)
	var self int64
	st := selfTimes(spans, kTxn)
	for _, s := range spans {
		if p.inWindow(s) {
			byKind[s.kind] = append(byKind[s.kind], s.dur())
			if s.kind == kTxn {
				self += st[s.id]
			}
		}
	}
	txns := float64(len(byKind[kTxn]))
	perTxn := func(v float64) float64 { return ratio(v, txns) }

	r.add("client.self_ms_per_txn", perTxn(float64(self)/1e6), "ms")
	c := p.cli
	r.add("client.faults_per_txn", perTxn(float64(c.Faults)), "count")
	r.add("client.page_diffs_per_txn", perTxn(float64(c.PageDiffs)), "count")
	r.add("client.log_bytes_per_txn", perTxn(float64(c.LogBytesShipped)), "B")
	r.add("client.dirty_pages_shipped_per_txn", perTxn(float64(c.DirtyPagesShipped)), "count")
	r.add("client.pages_fetched_per_txn", perTxn(float64(c.PagesFetched)), "count")
	r.add("client.evictions_per_txn", perTxn(float64(c.Evictions)), "count")
	r.add("client.recbuf_spills_per_txn", perTxn(float64(c.RecbufSpills)), "count")

	for _, op := range wireOps {
		d := newDist(byKind[op.k])
		r.add("wire."+op.name+".calls_per_txn", perTxn(float64(len(d))), "count")
		r.add("wire."+op.name+".p50_us", float64(percentile(d, 500))/1e3, "us")
		r.add("wire."+op.name+".busy_ms_per_txn", perTxn(float64(d.sum())/1e6), "ms")
	}

	s := p.srv
	r.add("server.pool_hit_ratio", ratio(float64(s.poolHits), float64(s.poolHits+s.poolMisses)), "ratio")
	r.add("server.pages_served_per_txn", perTxn(float64(s.pagesServed)), "count")
	r.add("server.latch_contention_per_txn", perTxn(float64(s.latchContention)), "count")
	r.add("lock.waits_per_txn", perTxn(float64(s.lockWaits)), "count")
	r.add("server.checkpoints_per_1k_commits", 1000*ratio(float64(s.checkpoints), float64(s.commits)), "count")
	r.add("server.ckpt_stall_ms_per_s", ratio(float64(s.ckptStallNs)/1e6, p.elapsed.Seconds()), "ms/s")
	r.add("wal.forces_per_commit", ratio(float64(s.logForces), float64(s.commits)), "count")
	r.add("wal.mean_batch", ratio(float64(s.gcCommits), float64(s.gcBatches)), "count")
	r.add("wal.flushes_avoided_ratio", ratio(float64(s.gcFlushesAvoided), float64(s.gcCommits)), "ratio")
	r.add("wal.log_pages_per_commit", ratio(float64(s.logPagesWritten), float64(s.commits)), "count")

	for _, io := range []struct {
		k    kind
		name string
	}{{kDiskRead, "read"}, {kDiskWrite, "write"}} {
		r.add("disk."+io.name+"s_per_txn", perTxn(float64(len(byKind[io.k]))), "count")
	}
	reads, writes := newDist(byKind[kDiskRead]), newDist(byKind[kDiskWrite])
	r.add("disk.read_p50_us", float64(percentile(reads, 500))/1e3, "us")
	r.add("disk.write_p50_us", float64(percentile(writes, 500))/1e3, "us")
	r.add("disk.busy_ms_per_txn", perTxn(float64(reads.sum()+writes.sum())/1e6), "ms")

	restartLayer(r, p.restarts, spans)
	r.add("trace.overhead_ratio", overhead, "ratio")
	return r
}

// restartLayer reports, per scheme, the medians over its crash cycles. A
// scheme the workload does not crash reports zeros.
func restartLayer(r *report, recs []restartRec, spans []span) {
	reads := make(map[uint64]int64)
	writes := make(map[uint64]int64)
	for _, s := range spans {
		switch {
		case s.parent == 0:
		case s.kind == kDiskRead:
			reads[s.parent]++
		case s.kind == kDiskWrite:
			writes[s.parent]++
		}
	}
	for _, sc := range schemes {
		var restart, first, redo, dist, rd, wr []int64
		for _, x := range recs {
			if x.scheme != sc.name {
				continue
			}
			restart, first = append(restart, x.restart), append(first, x.firstCommit)
			redo, dist = append(redo, x.redoRecords), append(dist, x.redoDistance)
			rd, wr = append(rd, reads[x.spanID]), append(wr, writes[x.spanID])
		}
		pre := "restart." + sc.name + "."
		r.add(pre+"restart_p50_ms", float64(median(restart))/1e6, "ms")
		r.add(pre+"first_commit_p50_ms", float64(median(first))/1e6, "ms")
		r.add(pre+"redo_records", float64(median(redo)), "count")
		r.add(pre+"redo_distance_kb", float64(median(dist))/1024, "KiB")
		r.add(pre+"disk_reads", float64(median(rd)), "count")
		r.add(pre+"disk_writes", float64(median(wr)), "count")
	}
}

func median(xs []int64) int64 { return percentile(newDist(xs), 500) }

// headline is the latency a workload's tracing overhead is judged by: the
// client transaction on commit and oo7, crash to first commit on restart.
func headline(workload string, p *phase) float64 {
	if workload == "restart" {
		rec := make([]int64, len(p.restarts))
		for i, x := range p.restarts {
			rec[i] = x.recovery
		}
		return float64(median(rec))
	}
	return float64(median(concat(p.txnLat)))
}

// jsonMetrics is the metrics object of the result line, in report order.
func (r *report) jsonMetrics() map[string]metric {
	out := make(map[string]metric, len(r.metrics))
	for _, m := range r.metrics {
		if _, dup := out[m.Name]; dup {
			panic(fmt.Sprintf("qsbench: metric %s reported twice", m.Name))
		}
		out[m.Name] = m
	}
	return out
}
