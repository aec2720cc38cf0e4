// Package wal implements the server's transaction log: a circular,
// append-only log on a dedicated disk, as in ESM (paper §3.1).
//
// LSNs are byte offsets into the conceptually infinite log stream; the
// physical location of LSN l is l modulo the log capacity. Appended records
// are volatile until Force is called (write-ahead logging); a simulated
// crash discards the unforced tail. The log can be scanned forward from any
// record boundary (ARIES redo), read at a specific LSN (WPL page reload),
// and truncated from the head as space is reclaimed.
//
// The log has no notion of why a force happens. Commit forces, two-phase
// commit's forced PREPARE and DECIDE records (a prepared participant's vote
// and the coordinator's commit point both require stability before the
// message that reveals them), and checkpoint forces all funnel through the
// same Force/CommitWait path, so 2PC forces batch into group-commit flushes
// exactly like ordinary commits.
package wal

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/logrec"
	"repro/internal/page"
)

// Errors returned by the log manager.
var (
	ErrFull      = errors.New("wal: log full")
	ErrTruncated = errors.New("wal: LSN already reclaimed")
	ErrBeyondEnd = errors.New("wal: LSN beyond stable end")
	// ErrTorn marks a record only partially stable when a crash hit —
	// page-grained flushing (ForceFull) can split a record across the
	// durability boundary. Scans treat it as end of log; such a record
	// belongs to an uncommitted transaction by WAL rules.
	ErrTorn = errors.New("wal: torn record at end of log")
)

// Log is the server's log manager. It is safe for concurrent use.
type Log struct {
	mu       sync.Mutex
	capacity uint64
	ring     []byte
	head     uint64 // oldest LSN still needed; space below is reclaimed
	flushed  uint64 // stable up to here; [flushed, next) is volatile
	next     uint64 // next LSN to assign
	forces   int64
	pages    int64 // cumulative 8 KB log pages physically written
	// limiter, when set, intercepts every flush (fault injection): it may
	// clamp how far the stable end actually advances, down to not at all.
	limiter   func(proposed uint64) uint64
	truncGate func() bool
	archGate  func(newHead uint64) bool
	shipGate  func(newHead uint64) bool
	// floor, when non-zero, bounds how far Truncate may advance the head:
	// records at or above floor are still needed (fuzzy checkpoints keep the
	// oldest dirty-page recLSN here, since restart redo must scan from it).
	floor uint64

	// Group commit (CommitWait) and Force share one stable-write path
	// (write): at most one modeled device write is in flight at a time.
	// The committer that finds none in flight leads — it performs the
	// group's write on its own goroutine — and committers arriving during
	// that write park on gcCond until a write covers them. attempt tracks
	// how far flushes have been *attempted* (the flush limiter may have
	// clamped the actual stable end): under fault injection a swallowed
	// flush models a crash, and the commit call returns rather than hanging.
	gcCond     *sync.Cond
	writeDelay time.Duration // modeled log-device latency per stable write
	attempt    uint64        // highest LSN any flush has attempted to make stable
	flushing   bool          // a write is in flight (l.mu released across writeDelay)
	flushTo    uint64        // target of the write in flight
	group      int64         // committers the in-flight group write covers
	epoch      uint64        // bumped by Crash so parked committers drain
	gcStats    GroupCommitStats
}

// GroupCommitStats counts group-commit activity for observability
// (qsctl stats, the benchmarks). A batch is one leader's stable write; its
// size is the leader plus every committer whose record that write covered.
type GroupCommitStats struct {
	Commits        int64     // CommitWait calls served
	Batches        int64     // leader writes performed
	PagesWritten   int64     // log pages written by leader writes
	FlushesAvoided int64     // commits that did not need their own stable write
	BatchSizes     [16]int64 // histogram: leader writes by committer count (last bucket = 15+)
}

// DefaultCapacity is the log size used when Config.Capacity is zero: 256 MB,
// comfortably larger than the paper's workloads generate between
// checkpoints.
const DefaultCapacity = 256 << 20

// FirstLSN is the LSN of the first record ever appended. LSNs start one log
// page in so that 0 can mean "no LSN" in page headers (a freshly formatted
// page has page LSN 0).
const FirstLSN = uint64(page.Size)

// New creates a log with the given capacity in bytes (DefaultCapacity if 0).
func New(capacity int) *Log {
	if capacity == 0 {
		capacity = DefaultCapacity
	}
	l := &Log{
		capacity: uint64(capacity),
		ring:     make([]byte, capacity),
		head:     FirstLSN,
		flushed:  FirstLSN,
		next:     FirstLSN,
		attempt:  FirstLSN,
	}
	l.gcCond = sync.NewCond(&l.mu)
	return l
}

// NewAt creates an empty log whose first LSN is start instead of FirstLSN.
// Media restore uses this to rebuild an archived log stream at its original
// LSNs: records appended in archive order are contiguous from start, so each
// is reassigned exactly the LSN it had when first logged, and every LSN
// recorded elsewhere (page headers, checkpoint payloads, the superblock's
// master record) resolves against the rebuilt log unchanged.
func NewAt(capacity int, start uint64) *Log {
	l := New(capacity)
	l.head, l.flushed, l.next, l.attempt = start, start, start, start
	return l
}

// encPool recycles Append's staging buffers. Every append encodes into a
// scratch slice before copying into the ring; without pooling that is one
// allocation per log record on the commit path (BenchmarkAppend reports the
// difference). Buffers grow to the largest record seen (a whole-page image
// under WPL) and are reused at that size.
var encPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 512)
		return &b
	},
}

// Append assigns the next LSN to r and stores its encoding in the volatile
// tail. It returns the assigned LSN. The caller is responsible for setting
// PrevLSN and the transaction fields before appending.
func (l *Log) Append(r *logrec.Record) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	size := uint64(r.EncodedSize())
	if l.next+size-l.head > l.capacity {
		return 0, fmt.Errorf("%w: need %d bytes, %d in use of %d",
			ErrFull, size, l.next-l.head, l.capacity)
	}
	r.LSN = l.next
	bp := encPool.Get().(*[]byte)
	buf := r.Encode((*bp)[:0])
	l.writeRing(l.next, buf)
	*bp = buf[:0]
	encPool.Put(bp)
	l.next += size
	return r.LSN, nil
}

func (l *Log) writeRing(at uint64, b []byte) {
	pos := at % l.capacity
	n := copy(l.ring[pos:], b)
	if n < len(b) {
		copy(l.ring, b[n:])
	}
}

func (l *Log) readRing(at uint64, b []byte) {
	pos := at % l.capacity
	n := copy(b, l.ring[pos:])
	if n < len(b) {
		copy(b[n:], l.ring[:len(b)-n])
	}
}

// SetFlushLimiter installs fn, called (with the log lock held) on every
// flush that would advance the stable end; the proposed new stable end is
// passed in and the value fn returns — clamped to [flushed, proposed] —
// becomes the actual stable end. The crash-point sweep uses this both to
// enumerate WAL-flush boundaries and to freeze the log at a chosen crash
// instant; returning a value mid-record injects a partial (torn) WAL-sector
// write. A nil fn removes the limiter.
func (l *Log) SetFlushLimiter(fn func(proposed uint64) uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.limiter = fn
}

// advanceFlushed moves the stable end toward proposed, consulting the flush
// limiter, and returns the number of 8 KB log pages written. Caller holds
// l.mu.
func (l *Log) advanceFlushed(proposed uint64) int {
	if proposed > l.attempt {
		l.attempt = proposed
	}
	if proposed <= l.flushed {
		return 0
	}
	if l.limiter != nil {
		p := l.limiter(proposed)
		if p < l.flushed {
			p = l.flushed
		}
		if p > proposed {
			p = proposed
		}
		proposed = p
		if proposed == l.flushed {
			return 0
		}
	}
	first := l.flushed / page.Size
	last := (proposed - 1) / page.Size
	l.flushed = proposed
	return int(last - first + 1)
}

// Force makes every appended record stable and returns the number of 8 KB
// log pages physically written, so callers can charge the log disk. A force
// that has nothing to flush writes no pages. When a write delay is
// configured (SetWriteDelay) the caller blocks for one device write, after
// any write already in flight.
func (l *Log) Force() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.flushing {
		l.gcCond.Wait()
	}
	return l.write(l.next)
}

// write is the one modeled stable write, shared by Force and the
// group-commit leader: it makes the log stable up to target and returns the
// 8 KB log pages written. Caller holds l.mu and no write is in flight. With
// a write delay configured, l.mu is released only across the device
// latency; flushing is set meanwhile, so committers arriving then park
// rather than start a second write. A Crash in that window voids the write:
// nothing becomes stable and it returns 0 (Crash has already released the
// parked committers). The flush limiter may clamp or swallow the write, but
// advanceFlushed still records the attempt.
func (l *Log) write(target uint64) int {
	if l.writeDelay > 0 && target > l.flushed {
		e := l.epoch
		l.flushing, l.flushTo = true, target
		l.mu.Unlock()
		time.Sleep(l.writeDelay)
		l.mu.Lock()
		if l.epoch != e {
			return 0 // crashed while the write was in flight
		}
		l.flushing = false
		defer l.gcCond.Broadcast()
	}
	n := l.advanceFlushed(target)
	if n > 0 {
		l.forces++
		l.pages += int64(n)
	}
	return n
}

// SetWriteDelay models the latency of one stable log write (the device the
// paper's dedicated log disk would be). Force and group-commit leaders block
// for this long per write; ForceFull (asynchronous full-page writes) does
// not. The commit-throughput benchmark uses this so group commit shows its
// real effect — amortizing the device write across a group — even on a
// machine whose in-memory "log disk" is otherwise free.
func (l *Log) SetWriteDelay(d time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.writeDelay = d
}

// CommitWait makes the record ending at lsn stable via leader-based group
// commit and returns the number of log pages charged to this committer. The
// caller must have appended its commit record (so lsn ≤ End()).
//
// A committer that finds no write in flight becomes the leader: it writes
// everything appended so far in one stable write and is charged that
// write's pages. Committers arriving while a write is in flight park; the
// ones it covers return when it lands, charged zero, and the rest are
// covered by the next leader's write — one of them leads it. Total charges
// therefore equal GroupStats().PagesWritten.
//
// The commit is satisfied as soon as a flush ATTEMPT covers lsn. Normally
// the attempt succeeds and the record is stable; under the crash-point
// sweep's flush limiter the attempt may be swallowed, which models the
// server dying mid-write — the call returns, and the sweep's recovery
// invariants treat the transaction by where the durability boundary
// actually froze. A Crash releases the leader and every parked committer.
func (l *Log) CommitWait(lsn uint64) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.gcStats.Commits++
	e := l.epoch
	for l.flushing && l.attempt < lsn && l.epoch == e {
		if lsn <= l.flushTo {
			l.group++ // the write in flight covers this record
		}
		l.gcCond.Wait()
	}
	if l.epoch != e {
		return 0 // drained by a crash
	}
	if l.attempt >= lsn {
		// Covered by another committer's write or a Force.
		l.gcStats.FlushesAvoided++
		return 0
	}
	l.group = 1
	n := l.write(l.next)
	if l.epoch != e {
		return 0
	}
	l.gcStats.Batches++
	l.gcStats.BatchSizes[min(l.group, int64(len(l.gcStats.BatchSizes)-1))]++
	l.gcStats.PagesWritten += int64(n)
	return n
}

// GroupStats returns a snapshot of the group-commit counters.
func (l *Log) GroupStats() GroupCommitStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.gcStats
}

// ForceFull makes only the complete 8 KB log pages of the volatile tail
// stable, leaving a partially filled tail page buffered in memory. Servers
// call this as client log records arrive so the disk sees full sequential
// pages; Force (at commit) flushes the remainder. Returns pages written.
func (l *Log) ForceFull() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	boundary := l.next / page.Size * page.Size
	if boundary <= l.flushed {
		return 0
	}
	n := l.advanceFlushed(boundary)
	l.pages += int64(n)
	return n
}

// Crash discards the volatile tail, as a server failure would, and then
// repositions the log end at the last whole-record boundary at or below the
// stable end. The trim matters when the durability boundary fell mid-record
// (page-grained flushing, or an injected partial sector write): without it,
// records appended after restart would begin part-way through the torn
// record's surviving prefix, and a scan after a second crash would read that
// stale prefix followed by unrelated bytes — corruption it could not tell
// from the real thing. The torn record may span the circular log's wrap
// point (its prefix at the end of the ring, its lost tail at the start);
// trimming by walking record boundaries from the head handles the linear and
// wrapped cases identically, because LSNs never wrap even though ring
// positions do.
func (l *Log) Crash() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.next = l.flushed
	l.trimTornLocked()
	// Wake committers parked in CommitWait: the LSNs they were waiting on no
	// longer exist. The epoch bump (rather than an attempt/flushed comparison,
	// which the trim may have rewound below a waiter's target) is what makes
	// their wait loops exit.
	l.epoch++
	l.attempt = l.flushed
	l.flushing = false
	l.gcCond.Broadcast()
}

// CrashClone returns an independent copy of the log as a crash with the
// durability boundary frozen at stableEnd would leave it: records wholly at
// or below stableEnd (clamped to [Head, End]) are stable, everything above
// is discarded, and a boundary that falls mid-record is trimmed exactly as
// Crash trims a torn tail. The receiver is not modified. The group-commit
// crash sweep uses this to replay one multi-client run at every candidate
// cut of the volatile region without re-running the workload.
func (l *Log) CrashClone(stableEnd uint64) *Log {
	l.mu.Lock()
	defer l.mu.Unlock()
	if stableEnd < l.head {
		stableEnd = l.head
	}
	if stableEnd > l.next {
		stableEnd = l.next
	}
	c := &Log{
		capacity: l.capacity,
		ring:     append([]byte(nil), l.ring...),
		head:     l.head,
		flushed:  stableEnd,
		next:     stableEnd,
	}
	c.gcCond = sync.NewCond(&c.mu)
	c.trimTornLocked()
	c.attempt = c.flushed
	return c
}

// trimTornLocked walks record boundaries from the head and truncates the log
// end at the last record wholly contained in the stable region. Caller holds
// l.mu.
func (l *Log) trimTornLocked() {
	lsn := l.head
	for lsn+logrec.HeaderSize <= l.flushed {
		var hdr [logrec.HeaderSize]byte
		l.readRing(lsn, hdr[:])
		total := uint64(uint32(hdr[0]) | uint32(hdr[1])<<8 | uint32(hdr[2])<<16 | uint32(hdr[3])<<24)
		if total < logrec.HeaderSize || lsn+total > l.flushed {
			break
		}
		lsn += total
	}
	l.next, l.flushed = lsn, lsn
}

// SetTruncateGate installs fn, called (with the log lock held) whenever
// Truncate would advance the head. Advancing the head is a stable write in
// its own right — a real log persists its head pointer, or reclamation would
// not survive restart — so the crash-point sweep counts each advance as a
// crash point and, past the chosen point, swallows it: the head stays put,
// exactly as if the process died before the pointer write reached disk.
// Without this, a checkpoint cut by the fuse could reclaim log space its
// never-durable checkpoint record was supposed to cover, and restart would
// find the previous checkpoint truncated away. A nil fn removes the gate.
func (l *Log) SetTruncateGate(fn func() bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.truncGate = fn
}

// SetArchiveGate installs fn, called (with the log lock held) whenever
// Truncate would advance the head, with the proposed new head. Returning
// false defers the truncation: the head stays put and Truncate reports
// success, exactly like a swallowed head-pointer write. The log archiver
// installs a gate refusing any head above its archived-up-to LSN, so log
// records can never be reclaimed before they are safely archived — the same
// choke point (and the same cannot-outrun-stable-state discipline) as the
// checkpoint/truncation ordering gate from the crash-point sweep. The
// archive gate is consulted before the truncate gate: a deferred truncation
// is not a stable-storage event, because the head-pointer write is never
// attempted. A nil fn removes the gate.
func (l *Log) SetArchiveGate(fn func(newHead uint64) bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.archGate = fn
}

// SetShipGate installs fn, called (with the log lock held) whenever Truncate
// would advance the head, with the proposed new head. Returning false defers
// the truncation exactly like the archive gate: the head stays put, Truncate
// reports success, and no stable-storage event is counted, because the
// head-pointer write is never attempted. The replication shipper installs a
// gate refusing any head above its shipped-up-to LSN, so the ring can never
// reclaim records a connected standby has not fetched yet — the same
// cannot-outrun-stable-state choke point as the archive gate, with the
// standby's applied LSN standing in for archivedUpTo. Consulted after the
// archive gate and before the truncate gate. A nil fn removes the gate.
func (l *Log) SetShipGate(fn func(newHead uint64) bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.shipGate = fn
}

// SetTruncateFloor sets the lowest LSN truncation must retain (0 removes the
// floor). Truncate clamps its head to the floor instead of failing, so a
// caller computing a head from stale state cannot reclaim records restart
// redo still needs: the server keeps the oldest dirty-page recLSN here, the
// redo scan start under fuzzy checkpoints.
func (l *Log) SetTruncateFloor(lsn uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.floor = lsn
}

// TruncateFloor returns the current recLSN truncation floor (0 = none).
func (l *Log) TruncateFloor() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.floor
}

// Truncate reclaims log space below newHead, which must be a record boundary
// at or below the stable end. The head never advances past the truncation
// floor (SetTruncateFloor); a fully clamped truncation is a no-op, not an
// error, and — like a gate-deferred one — not a stable-storage event.
func (l *Log) Truncate(newHead uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if newHead < l.head {
		return fmt.Errorf("wal: truncate moves head backward (%d < %d)", newHead, l.head)
	}
	if newHead > l.flushed {
		return fmt.Errorf("wal: truncate beyond stable end (%d > %d)", newHead, l.flushed)
	}
	if l.floor > 0 && newHead > l.floor {
		newHead = l.floor
	}
	if newHead <= l.head {
		return nil
	}
	if l.archGate != nil && !l.archGate(newHead) {
		return nil // deferred: the archiver has not drained this span yet
	}
	if l.shipGate != nil && !l.shipGate(newHead) {
		return nil // deferred: a standby has not fetched this span yet
	}
	if l.truncGate != nil && !l.truncGate() {
		return nil // swallowed: the head-pointer write never reached disk
	}
	l.head = newHead
	return nil
}

// Used returns the bytes of log space currently occupied.
func (l *Log) Used() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next - l.head
}

// Capacity returns the configured log size in bytes.
func (l *Log) Capacity() uint64 { return l.capacity }

// Head returns the oldest retained LSN.
func (l *Log) Head() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.head
}

// StableEnd returns the LSN just past the last forced record.
func (l *Log) StableEnd() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.flushed
}

// End returns the next LSN to be assigned (including volatile records).
func (l *Log) End() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next
}

// Forces returns how many Force calls actually wrote.
func (l *Log) Forces() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.forces
}

// PagesWritten returns the cumulative count of 8 KB log pages written.
func (l *Log) PagesWritten() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.pages
}

// ReadAt decodes the stable record starting at lsn.
func (l *Log) ReadAt(lsn uint64) (*logrec.Record, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.readAtLocked(lsn)
}

func (l *Log) readAtLocked(lsn uint64) (*logrec.Record, error) {
	return l.decodeAt(lsn, nil)
}

// decodeAt decodes the record at lsn. With a nil scratch each call allocates
// a fresh buffer and the record owns its payload. With a non-nil scratch the
// encoded bytes are staged in *scratch (grown as needed and reused), so the
// record's Before/After images alias that buffer and are valid only until
// the next decodeAt against the same scratch — Scan uses this to decode a
// whole restart pass with a single payload allocation. Caller holds l.mu.
func (l *Log) decodeAt(lsn uint64, scratch *[]byte) (*logrec.Record, error) {
	if lsn < l.head {
		return nil, fmt.Errorf("%w: %d < head %d", ErrTruncated, lsn, l.head)
	}
	// Reads may cover the volatile tail: the in-memory log buffer is part of
	// the log manager (WPL re-reads unforced page images, undo walks fresh
	// records). A crash truncates next back to flushed, so post-crash reads
	// see only stable records.
	if lsn+logrec.HeaderSize > l.next {
		return nil, fmt.Errorf("%w: %d", ErrBeyondEnd, lsn)
	}
	var hdr [logrec.HeaderSize]byte
	l.readRing(lsn, hdr[:])
	total := int(uint32(hdr[0]) | uint32(hdr[1])<<8 | uint32(hdr[2])<<16 | uint32(hdr[3])<<24)
	if total < logrec.HeaderSize {
		return nil, fmt.Errorf("wal: bad record length %d at LSN %d", total, lsn)
	}
	if lsn+uint64(total) > l.next {
		return nil, fmt.Errorf("%w: %d bytes at LSN %d", ErrTorn, total, lsn)
	}
	var buf []byte
	if scratch != nil {
		if cap(*scratch) < total {
			*scratch = make([]byte, total)
		}
		buf = (*scratch)[:total]
	} else {
		buf = make([]byte, total)
	}
	l.readRing(lsn, buf)
	r, _, err := logrec.Decode(buf)
	if err != nil {
		// A record whose extent reaches the stable end and fails its CRC is
		// the surviving prefix of a torn write (possibly spanning the ring's
		// wrap point), not corruption in the middle of the log: report it as
		// a torn tail so scans stop cleanly instead of failing recovery.
		if lsn+uint64(total) >= l.flushed {
			return nil, fmt.Errorf("%w: %v at LSN %d", ErrTorn, err, lsn)
		}
		return nil, fmt.Errorf("wal: record at LSN %d: %w", lsn, err)
	}
	return r, nil
}

// Scan calls fn for every stable record with LSN in [from, StableEnd), in
// LSN order, stopping early if fn returns false. from must be a record
// boundary at or above the head; passing Head() scans the whole retained
// log.
//
// The record passed to fn reuses one decode buffer across the whole scan:
// its Before/After images are valid only for the duration of the callback.
// Callers that retain a record past their callback must Clone it; retaining
// only scalar fields (TID, Page, LSN, Type) is always safe.
func (l *Log) Scan(from uint64, fn func(*logrec.Record) bool) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if from < l.head {
		return fmt.Errorf("%w: scan from %d < head %d", ErrTruncated, from, l.head)
	}
	var scratch []byte
	for lsn := from; lsn < l.next; {
		r, err := l.decodeAt(lsn, &scratch)
		if errors.Is(err, ErrTorn) || errors.Is(err, ErrBeyondEnd) {
			return nil // torn tail after a crash: end of usable log
		}
		if err != nil {
			return err
		}
		if !fn(r) {
			return nil
		}
		lsn += uint64(r.EncodedSize())
	}
	return nil
}

// ScanFrom is the tail-follow scan used by log shipping: it calls fn for
// every record wholly stable in [from, StableEnd), in LSN order, and returns
// the boundary just past the last record delivered — the LSN at which a later
// call resumes once more of the tail has been forced. Unlike Scan it never
// delivers the volatile tail (shipping a record the primary could still lose
// in a crash would let a standby get ahead of its primary), it re-acquires
// the log lock per record so a long catch-up scan never blocks appenders or
// group-commit leaders, and it stops promptly when cancel is closed.
//
// Each delivered record is staged in a buffer private to this call, so —
// unlike Scan — the record stays valid while fn runs without the log lock
// held; it is still invalidated by the next record, so callers that retain
// one must Clone it (Encode-ing it into an outgoing batch is the typical,
// safe use). fn returning false stops the scan after the current record; the
// returned resume LSN then points just past it, so nothing is skipped or
// redelivered.
//
// If the resume point has been reclaimed under the caller (the truncation
// race: the shipper fell behind and no gate held the head back), ScanFrom
// returns ErrTruncated with the same resume LSN — the caller must
// re-bootstrap from an archive rather than resume.
func (l *Log) ScanFrom(from uint64, cancel <-chan struct{}, fn func(*logrec.Record) bool) (uint64, error) {
	lsn := from
	var scratch []byte
	for {
		select {
		case <-cancel:
			return lsn, nil
		default:
		}
		l.mu.Lock()
		if lsn < l.head {
			head := l.head
			l.mu.Unlock()
			return lsn, fmt.Errorf("%w: scan from %d < head %d", ErrTruncated, lsn, head)
		}
		if lsn+logrec.HeaderSize > l.flushed {
			l.mu.Unlock()
			return lsn, nil // header not fully stable: end of shippable log
		}
		r, err := l.decodeAt(lsn, &scratch)
		if err == nil && lsn+uint64(r.EncodedSize()) > l.flushed {
			// The record decodes (its bytes are in the ring) but its tail is
			// still volatile — a mid-batch cut leaves the durability boundary
			// inside a record. Stop before it; the next call picks it up once
			// a flush covers it.
			err = ErrBeyondEnd
		}
		if errors.Is(err, ErrTorn) || errors.Is(err, ErrBeyondEnd) {
			l.mu.Unlock()
			return lsn, nil
		}
		if err != nil {
			l.mu.Unlock()
			return lsn, err
		}
		l.mu.Unlock()
		cont := fn(r)
		lsn += uint64(r.EncodedSize())
		if !cont {
			return lsn, nil
		}
	}
}

// ScanBackward collects every stable record in [from, StableEnd) and calls
// fn from the newest to the oldest, stopping early if fn returns false. This
// is the access pattern of WPL restart (paper §3.4.3); the caller charges
// the log disk for the pages touched. Records are cloned out of Scan's
// shared decode buffer, so (unlike Scan) they remain valid after fn returns.
func (l *Log) ScanBackward(from uint64, fn func(*logrec.Record) bool) error {
	var recs []*logrec.Record
	if err := l.Scan(from, func(r *logrec.Record) bool {
		recs = append(recs, r.Clone())
		return true
	}); err != nil {
		return err
	}
	for i := len(recs) - 1; i >= 0; i-- {
		if !fn(recs[i]) {
			return nil
		}
	}
	return nil
}

// PagesInRange returns the number of 8 KB log pages overlapping [from, to),
// for disk-cost accounting of scans.
func PagesInRange(from, to uint64) int {
	if to <= from {
		return 0
	}
	return int((to-1)/page.Size - from/page.Size + 1)
}
