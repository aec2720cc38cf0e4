package main

import (
	"bufio"
	"cmp"
	"compress/gzip"
	"errors"
	"fmt"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/disk"
	"repro/internal/lock"
	"repro/internal/logrec"
	"repro/internal/page"
	"repro/internal/wire"
)

// kind names a span. Kinds are small integers so a traced commit run, which
// records millions of spans, keeps them compactly.
type kind uint8

const (
	kTxn     kind = iota // one client transaction, begin to commit or abort
	kRestart             // Session.Restart after a crash
	kWireBegin
	kWireLock
	kWireAllocPage
	kWireReadPage
	kWireShipLog
	kWireShipPage
	kWireCommit
	kWireAbort
	kDiskRead
	kDiskWrite
	numKinds
)

var kindNames = [numKinds]string{
	"txn", "restart",
	"wire.begin", "wire.lock", "wire.alloc_page", "wire.read_page",
	"wire.ship_log", "wire.ship_page", "wire.commit", "wire.abort",
	"disk.read", "disk.write",
}

func (k kind) String() string { return kindNames[k] }

// span is one timed interval at a layer boundary. Parent is the id of the
// span that caused it (a client transaction for wire spans, a restart for
// the disk reads and writes it issues), 0 when unknown.
type span struct {
	kind       kind
	id, parent uint64
	start, end int64 // nanoseconds since the tracer's epoch
}

func (s span) dur() int64 { return s.end - s.start }

// tracer keeps spans in memory; they are written out once, at exit.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// newID reserves a span id before the span ends, so children recorded while
// it is open can name it as their parent.
func (t *tracer) newID() uint64 { return t.ids.Add(1) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// record closes a span opened at start.
func (t *tracer) record(k kind, id, parent uint64, start int64) {
	t.add(span{kind: k, id: id, parent: parent, start: start, end: t.now()})
}

// all returns the recorded spans. Call it only once every goroutine that
// records into t has finished.
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans
}

// writeFile writes every span as a tab-separated line, gzip-compressed.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw, err := gzip.NewWriterLevel(f, gzip.BestSpeed)
	if err != nil {
		f.Close()
		return err
	}
	w := bufio.NewWriter(zw)
	fmt.Fprintln(w, "name\tid\tparent\tstart_ns\tend_ns")
	for _, s := range t.all() {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\n", s.kind, s.id, s.parent, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, for every span of kind k, its duration minus the part
// of its interval that its children cover (overlapping children are counted
// once), keyed by span id. It sorts spans in place, by parent and then by
// start: a traced commit window holds millions of spans, too many to copy.
func selfTimes(spans []span, k kind) map[uint64]int64 {
	parents := make(map[uint64]span)
	for _, s := range spans {
		if s.kind == k {
			parents[s.id] = s
		}
	}
	slices.SortFunc(spans, func(a, b span) int {
		if c := cmp.Compare(a.parent, b.parent); c != 0 {
			return c
		}
		return cmp.Compare(a.start, b.start)
	})
	out := make(map[uint64]int64, len(parents))
	for id, p := range parents {
		out[id] = p.dur()
	}
	for i := 0; i < len(spans); {
		j := i + 1
		for j < len(spans) && spans[j].parent == spans[i].parent {
			j++
		}
		if p, ok := parents[spans[i].parent]; ok && p.id != 0 {
			out[p.id] -= covered(p, spans[i:j])
		}
		i = j
	}
	return out
}

// covered returns how much of p's interval the union of the children's
// intervals (clipped to p) covers. The children must be sorted by start.
func covered(p span, children []span) int64 {
	var total, curLo, curHi int64
	open := false
	for _, c := range children {
		lo, hi := max64(c.start, p.start), min64(c.end, p.end)
		switch {
		case hi <= lo:
		case !open:
			curLo, curHi, open = lo, hi, true
		case lo <= curHi:
			curHi = max64(curHi, hi)
		default:
			total += curHi - curLo
			curLo, curHi = lo, hi
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// errCut is what the transport returns instead of forwarding a commit while
// a cut is armed: the client has shipped all of its work, the server never
// sees the commit request, and the transaction is in flight when the server
// crashes.
var errCut = errors.New("qsbench: commit withheld to leave the transaction in flight")

// transport sits between one client and its wire.Service. It always times
// the commit request (the commit_* metrics) and can withhold a commit (the
// in-flight transaction of a crash cycle). With a tracer it also records a
// span per call, parented to the client's current transaction span. A
// transport belongs to one client, which is single-threaded, so its fields
// need no locking.
type transport struct {
	inner wire.Service
	tr    *tracer
	txn   uint64 // current transaction span id (traced runs)
	cut   bool
	// commitLat, when non-nil, collects commit request latencies.
	commitLat *[]int64
}

func (t *transport) begin() int64 {
	if t.tr == nil {
		return 0
	}
	return t.tr.now()
}

func (t *transport) end(k kind, start int64) {
	if t.tr != nil {
		t.tr.record(k, t.tr.newID(), t.txn, start)
	}
}

func (t *transport) Begin() (logrec.TID, error) {
	s := t.begin()
	tid, err := t.inner.Begin()
	t.end(kWireBegin, s)
	return tid, err
}

func (t *transport) Lock(tid logrec.TID, pid page.ID, mode lock.Mode) error {
	s := t.begin()
	err := t.inner.Lock(tid, pid, mode)
	t.end(kWireLock, s)
	return err
}

func (t *transport) AllocPage(tid logrec.TID) (page.ID, error) {
	s := t.begin()
	pid, err := t.inner.AllocPage(tid)
	t.end(kWireAllocPage, s)
	return pid, err
}

func (t *transport) ReadPage(tid logrec.TID, pid page.ID, mode lock.Mode) ([]byte, error) {
	s := t.begin()
	data, err := t.inner.ReadPage(tid, pid, mode)
	t.end(kWireReadPage, s)
	return data, err
}

func (t *transport) ShipLog(tid logrec.TID, data []byte) error {
	s := t.begin()
	err := t.inner.ShipLog(tid, data)
	t.end(kWireShipLog, s)
	return err
}

func (t *transport) ShipPage(tid logrec.TID, pid page.ID, data []byte) error {
	s := t.begin()
	err := t.inner.ShipPage(tid, pid, data)
	t.end(kWireShipPage, s)
	return err
}

func (t *transport) Commit(tid logrec.TID) error {
	if t.cut {
		return errCut
	}
	s := t.begin()
	t0 := time.Now()
	err := t.inner.Commit(tid)
	if t.commitLat != nil && err == nil {
		*t.commitLat = append(*t.commitLat, int64(time.Since(t0)))
	}
	t.end(kWireCommit, s)
	return err
}

func (t *transport) Abort(tid logrec.TID) error {
	s := t.begin()
	err := t.inner.Abort(tid)
	t.end(kWireAbort, s)
	return err
}

var _ wire.Service = (*transport)(nil)

// tracedStore records a span per page read and write on the server's data
// volume. Parent is the span the benchmark marks as the cause of the I/O
// (a restart); I/O done on behalf of client requests has parent 0, since the
// store cannot tell which transaction's request it serves.
type tracedStore struct {
	disk.Store
	tr     *tracer
	parent atomic.Uint64
}

func (s *tracedStore) ReadPage(id page.ID, buf []byte) error {
	start := s.tr.now()
	err := s.Store.ReadPage(id, buf)
	s.tr.record(kDiskRead, s.tr.newID(), s.parent.Load(), start)
	return err
}

// WritePage passes the server's own write through; the server issued it
// under its WAL protocol.
//
//qslint:allow wal-discipline: a pass-through that times writes the server already ordered behind its log
func (s *tracedStore) WritePage(id page.ID, data []byte) error {
	start := s.tr.now()
	err := s.Store.WritePage(id, data)
	s.tr.record(kDiskWrite, s.tr.newID(), s.parent.Load(), start)
	return err
}
