package server

// Checkpointing, crash simulation and restart recovery.
//
// ESM/REDO take sharp ARIES-style checkpoints: all dirty pages are flushed
// (after forcing the log per the write-ahead rule), the active-transaction
// table is logged, and the log is truncated below the oldest LSN any active
// transaction still needs. Restart then runs analysis from the checkpoint,
// redoes history conditionally on page LSNs, and rolls back losers with
// CLRs. Redo is partitioned by page ID across Config.RedoWorkers goroutines
// — per-page record order is preserved because a page belongs to exactly one
// worker; undo stays sequential (CLR LSNs must be deterministic).
//
// WPL checkpoints write the WPL table to the log (paper §3.4.3); restart is
// the paper's single backward pass that builds the committed-transactions
// list, reconstructs the WPL table, and installs the surviving copies.
//
// Every entry point here takes the write side of the quiesce gate, so it
// observes a server with no session operation in flight; the leaf mutexes
// are still taken around map access to keep the lock discipline uniform.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/disk"
	"repro/internal/logrec"
	"repro/internal/page"
	"repro/internal/wal"
)

// --- checkpoint payload encoding ------------------------------------------

// ckptTxn is an active-transaction-table entry in a checkpoint record.
type ckptTxn struct {
	tid      logrec.TID
	lastLSN  uint64
	firstLSN uint64
}

// ckptWPL is a WPL-table entry in a checkpoint record.
type ckptWPL struct {
	pid       page.ID
	lsn       uint64
	tid       logrec.TID
	committed bool
}

// ckptDPT is a dirty-page-table entry in a checkpoint record: the page and
// the LSN restart redo must scan from for it. Fuzzy checkpoints log the DPT
// instead of flushing it; sharp checkpoints log whatever entries their flush
// could not retire (pages whose logged records outrun the shipped image).
type ckptDPT struct {
	pid page.ID
	rec uint64
}

// ckptPrepared is a prepared (in-doubt-capable) branch in a checkpoint
// record: enough to resurrect the 2PC state even when the PREPARE record
// itself predates the analysis scan window.
type ckptPrepared struct {
	tid     logrec.TID
	prepLSN uint64
	coord   int
	parts   []int
}

// ckptDecided is a coordinator commit decision still awaiting the forget
// protocol. Carrying it in the checkpoint lets truncation reclaim the DECIDE
// record itself without losing the resolution answer.
type ckptDecided struct {
	tid   logrec.TID
	lsn   uint64
	parts []int
}

type ckptPayload struct {
	nextPage page.ID
	nextTID  logrec.TID
	// beginLSN is the log end captured before the ATT/DPT/WPL snapshot was
	// taken. Restart analysis scans from here: a record appended between the
	// snapshot and the checkpoint record's own append is re-analyzed rather
	// than lost. Zero in legacy (pre-DPT) payloads, where analysis falls back
	// to scanning from just past the checkpoint record.
	beginLSN uint64
	txns     []ckptTxn
	wpl      []ckptWPL
	dpt      []ckptDPT
	// 2PC trailer (v3). Both empty on a single-shard server, where encode()
	// emits the byte-identical v2 layout.
	prepared []ckptPrepared
	decided  []ckptDecided
}

// ckptV2Magic marks the extended checkpoint layout (DPT entries + analysis
// begin LSN). The legacy layout's first word is nextPage, a 32-bit page id,
// so a first word with high bits set is unambiguous.
const ckptV2Magic = uint64(0x5153434B50543032) // "QSCKPT02"

// ckptV3Magic marks the 2PC-aware layout: the v2 body followed by a trailer
// of prepared branches and decided-but-unforgotten transactions. Emitted only
// when the trailer would be non-empty, so single-shard deployments keep
// producing byte-identical v2 records.
const ckptV3Magic = uint64(0x5153434B50543033) // "QSCKPT03"

func (c *ckptPayload) encode() []byte {
	buf := make([]byte, 0, 56+24*len(c.txns)+24*len(c.wpl)+16*len(c.dpt))
	var tmp [8]byte
	put64 := func(v uint64) {
		binary.LittleEndian.PutUint64(tmp[:], v)
		buf = append(buf, tmp[:]...)
	}
	magic := ckptV2Magic
	if len(c.prepared) > 0 || len(c.decided) > 0 {
		magic = ckptV3Magic
	}
	put64(magic)
	put64(uint64(c.nextPage))
	put64(uint64(c.nextTID))
	put64(c.beginLSN)
	put64(uint64(len(c.txns)))
	put64(uint64(len(c.wpl)))
	put64(uint64(len(c.dpt)))
	for _, t := range c.txns {
		put64(uint64(t.tid))
		put64(t.lastLSN)
		put64(t.firstLSN)
	}
	for _, w := range c.wpl {
		put64(uint64(w.pid))
		put64(w.lsn)
		committed := uint64(0)
		if w.committed {
			committed = 1
		}
		put64(uint64(w.tid)<<1 | committed)
	}
	for _, d := range c.dpt {
		put64(uint64(d.pid))
		put64(d.rec)
	}
	if magic == ckptV3Magic {
		put64(uint64(len(c.prepared)))
		for _, p := range c.prepared {
			put64(uint64(p.tid))
			put64(p.prepLSN)
			put64(uint64(p.coord))
			put64(uint64(len(p.parts)))
			for _, sh := range p.parts {
				put64(uint64(sh))
			}
		}
		put64(uint64(len(c.decided)))
		for _, d := range c.decided {
			put64(uint64(d.tid))
			put64(d.lsn)
			put64(uint64(len(d.parts)))
			for _, sh := range d.parts {
				put64(uint64(sh))
			}
		}
	}
	return buf
}

func decodeCkpt(b []byte) (*ckptPayload, error) {
	if len(b) < 32 {
		return nil, fmt.Errorf("server: checkpoint payload too short (%d bytes)", len(b))
	}
	get := func(i int) uint64 { return binary.LittleEndian.Uint64(b[8*i:]) }
	magic := get(0)
	if magic != ckptV2Magic && magic != ckptV3Magic {
		return decodeCkptLegacy(b)
	}
	c := &ckptPayload{
		nextPage: page.ID(get(1)),
		nextTID:  logrec.TID(get(2)),
		beginLSN: get(3),
	}
	nt, nw, nd := int(get(4)), int(get(5)), int(get(6))
	body := 56 + 24*nt + 24*nw + 16*nd
	if nt < 0 || nw < 0 || nd < 0 ||
		(magic == ckptV2Magic && len(b) != body) ||
		(magic == ckptV3Magic && (len(b) < body+16 || len(b)%8 != 0)) {
		return nil, fmt.Errorf("server: checkpoint payload size mismatch")
	}
	idx := 7
	for i := 0; i < nt; i++ {
		c.txns = append(c.txns, ckptTxn{
			tid:      logrec.TID(get(idx)),
			lastLSN:  get(idx + 1),
			firstLSN: get(idx + 2),
		})
		idx += 3
	}
	for i := 0; i < nw; i++ {
		pid := page.ID(get(idx))
		lsn := get(idx + 1)
		packed := get(idx + 2)
		c.wpl = append(c.wpl, ckptWPL{
			pid:       pid,
			lsn:       lsn,
			tid:       logrec.TID(packed >> 1),
			committed: packed&1 == 1,
		})
		idx += 3
	}
	for i := 0; i < nd; i++ {
		c.dpt = append(c.dpt, ckptDPT{pid: page.ID(get(idx)), rec: get(idx + 1)})
		idx += 2
	}
	if magic == ckptV3Magic {
		// The 2PC trailer is variable-length (each entry carries a participant
		// list), so it is parsed with a running cursor and exact-consumption
		// check instead of one closed-form size.
		words := len(b) / 8
		bad := func() (*ckptPayload, error) {
			return nil, fmt.Errorf("server: checkpoint 2PC trailer malformed")
		}
		np := get(idx)
		idx++
		if np > uint64(words) {
			return bad()
		}
		for i := 0; i < int(np); i++ {
			if idx+4 > words {
				return bad()
			}
			p := ckptPrepared{
				tid:     logrec.TID(get(idx)),
				prepLSN: get(idx + 1),
				coord:   int(get(idx + 2)),
			}
			nparts := get(idx + 3)
			idx += 4
			if nparts > uint64(words) || idx+int(nparts) > words {
				return bad()
			}
			for j := 0; j < int(nparts); j++ {
				p.parts = append(p.parts, int(get(idx)))
				idx++
			}
			c.prepared = append(c.prepared, p)
		}
		if idx >= words {
			return bad()
		}
		ndec := get(idx)
		idx++
		if ndec > uint64(words) {
			return bad()
		}
		for i := 0; i < int(ndec); i++ {
			if idx+3 > words {
				return bad()
			}
			d := ckptDecided{tid: logrec.TID(get(idx)), lsn: get(idx + 1)}
			nparts := get(idx + 2)
			idx += 3
			if nparts > uint64(words) || idx+int(nparts) > words {
				return bad()
			}
			for j := 0; j < int(nparts); j++ {
				d.parts = append(d.parts, int(get(idx)))
				idx++
			}
			c.decided = append(c.decided, d)
		}
		if idx != words {
			return bad()
		}
	}
	return c, nil
}

// decodeCkptLegacy reads the pre-DPT layout (no magic, no beginLSN): archived
// logs written before fuzzy checkpoints still replay.
func decodeCkptLegacy(b []byte) (*ckptPayload, error) {
	get := func(i int) uint64 { return binary.LittleEndian.Uint64(b[8*i:]) }
	c := &ckptPayload{
		nextPage: page.ID(get(0)),
		nextTID:  logrec.TID(get(1)),
	}
	nt, nw := int(get(2)), int(get(3))
	if nt < 0 || nw < 0 || len(b) != 32+24*nt+24*nw {
		return nil, fmt.Errorf("server: checkpoint payload size mismatch")
	}
	idx := 4
	for i := 0; i < nt; i++ {
		c.txns = append(c.txns, ckptTxn{
			tid:      logrec.TID(get(idx)),
			lastLSN:  get(idx + 1),
			firstLSN: get(idx + 2),
		})
		idx += 3
	}
	for i := 0; i < nw; i++ {
		pid := page.ID(get(idx))
		lsn := get(idx + 1)
		packed := get(idx + 2)
		c.wpl = append(c.wpl, ckptWPL{
			pid:       pid,
			lsn:       lsn,
			tid:       logrec.TID(packed >> 1),
			committed: packed&1 == 1,
		})
		idx += 3
	}
	return c, nil
}

// --- checkpoint ------------------------------------------------------------

// Checkpoint writes a checkpoint record, updates the master record in the
// superblock, and reclaims log space. By default it is sharp — the server
// quiesces and every dirty page is flushed for its duration — which is the
// stop-the-world stall the fuzzy variant (Config.FuzzyCheckpoints) removes:
// a fuzzy checkpoint logs the ATT and the DPT (per-page recLSN) under the
// read side of the gate, flushing nothing; the page cleaner retires dirty
// pages in the background and restart redo begins at min(recLSN).
func (sn *Session) Checkpoint() error {
	s := sn.s
	if s.restarting.Load() {
		// Restart owns the gate and the log; a checkpoint racing it would
		// deadlock or observe half-recovered tables. Restart takes its own
		// final checkpoint, so there is nothing for this caller to do.
		return ErrRestarting
	}
	if s.standby.Load() {
		// A standby never originates checkpoint records — it mirrors the
		// primary's, superblock write and log reclamation included, when they
		// arrive in the shipped stream (ApplyShipped).
		return ErrStandby
	}
	if s.cfg.FuzzyCheckpoints {
		return s.checkpointFuzzy(sn)
	}
	s.gate.Lock()
	defer s.gate.Unlock()
	//qslint:allow determinism: wall-clock stall accounting only (CkptStallNs); never logged, never replayed, no control flow depends on it
	start := time.Now()
	err := s.checkpointQuiesced(sn)
	//qslint:allow determinism: wall-clock stall accounting only (CkptStallNs); never logged, never replayed, no control flow depends on it
	atomic.AddInt64(&s.stats.CkptStallNs, int64(time.Since(start)))
	return err
}

// checkpointFuzzy takes an ARIES-style fuzzy checkpoint: sessions keep
// committing (only the read side of the gate is held, so Crash/Restart still
// exclude it), no page is flushed, and the checkpoint record carries the DPT
// so restart knows where redo must begin. ckptMu serializes checkpointers;
// a checkpoint already in flight makes this one redundant (it would log a
// near-identical snapshot), so it is skipped rather than queued — checkpoints
// are maintenance and callers tolerate "not now".
func (s *Server) checkpointFuzzy(sn *Session) error {
	if !s.ckptMu.TryLock() {
		return nil
	}
	defer s.ckptMu.Unlock()
	defer s.enter()()
	return s.checkpointCore(sn)
}

// checkpointQuiesced is the sharp checkpoint body (and Restart's final
// checkpoint). Caller holds gate.W. Under Config.FuzzyCheckpoints the flush
// loop is skipped — the quiesced caller still gets a valid fuzzy-style
// checkpoint record with the DPT logged instead of flushed.
func (s *Server) checkpointQuiesced(sn *Session) error {
	if s.cfg.Mode != ModeWPL && !s.cfg.FuzzyCheckpoints {
		// Sharp checkpoint: force the log once, then flush every dirty page
		// (in ascending page order — the sweep's event stream depends on it).
		sn.meter().LogWrite(s.log.Force())
		for _, pid := range s.pool.DirtyPages() {
			sh := s.pool.Lock(pid)
			f := sh.Peek(pid)
			lsn := page.Wrap(f.Bytes()).LSN()
			if err := s.store.WritePage(pid, f.Bytes()); err != nil {
				sh.Unlock()
				return err
			}
			sn.meter().DataWriteAsync(1)
			atomic.AddInt64(&s.stats.DataWrites, 1)
			sh.MarkClean(pid)
			sh.Unlock()
			s.retireDPT(pid, lsn)
		}
	}
	return s.checkpointCore(sn)
}

// checkpointCore snapshots the tables, appends the checkpoint record, writes
// the master record, and reclaims log space. Caller holds gate.W (sharp,
// restart) or gate.R plus ckptMu (fuzzy).
//
// The analysis begin LSN and all three table snapshots are captured inside
// ONE attMu critical section. Every append that updates a recovery table
// also runs inside an attMu section (see the package comment), so a record
// below beginLSN has its table updates in the snapshot, and a record the
// snapshot missed is at or above beginLSN, where the restart scan re-analyzes
// it. DPT deletions are the one exception (the cleaner retires entries under
// dptMu alone), and they only ever remove pages whose stored image has
// caught up — losing one from the snapshot loses no redo work.
func (s *Server) checkpointCore(sn *Session) error {
	s.allocMu.Lock()
	c := ckptPayload{nextPage: s.nextPage, nextTID: s.nextTID}
	s.allocMu.Unlock()
	s.attMu.Lock()
	c.beginLSN = s.log.End()
	for _, t := range s.att {
		c.txns = append(c.txns, ckptTxn{tid: t.tid, lastLSN: t.lastLSN, firstLSN: t.firstLSN})
		if t.prepared {
			c.prepared = append(c.prepared, ckptPrepared{
				tid:     t.tid,
				prepLSN: t.prepLSN,
				coord:   t.coord,
				parts:   append([]int(nil), t.parts...),
			})
		}
	}
	s.decMu.Lock()
	for tid, d := range s.decided {
		c.decided = append(c.decided, ckptDecided{tid: tid, lsn: d.lsn, parts: append([]int(nil), d.parts...)})
	}
	s.decMu.Unlock()
	s.dptMu.Lock()
	for pid, e := range s.dpt {
		c.dpt = append(c.dpt, ckptDPT{pid: pid, rec: e.rec})
	}
	s.dptMu.Unlock()
	s.wplMu.Lock()
	for _, head := range s.wpl {
		for e := head; e != nil; e = e.prev {
			c.wpl = append(c.wpl, ckptWPL{pid: e.pid, lsn: e.lsn, tid: e.tid, committed: e.committed})
		}
	}
	s.wplMu.Unlock()
	s.attMu.Unlock()
	// Map iteration is randomized; sort so the checkpoint record's bytes —
	// and with them every later LSN — are identical run to run, which the
	// crash-point sweep's reproducibility depends on.
	sort.Slice(c.txns, func(i, j int) bool { return c.txns[i].tid < c.txns[j].tid })
	sort.Slice(c.wpl, func(i, j int) bool {
		if c.wpl[i].pid != c.wpl[j].pid {
			return c.wpl[i].pid < c.wpl[j].pid
		}
		return c.wpl[i].lsn < c.wpl[j].lsn
	})
	sort.Slice(c.dpt, func(i, j int) bool { return c.dpt[i].pid < c.dpt[j].pid })
	sort.Slice(c.prepared, func(i, j int) bool { return c.prepared[i].tid < c.prepared[j].tid })
	sort.Slice(c.decided, func(i, j int) bool { return c.decided[i].tid < c.decided[j].tid })
	rec := &logrec.Record{Type: logrec.TypeCheckpoint, PrevLSN: logrec.NoLSN, After: c.encode()}
	ckptLSN, err := s.log.Append(rec)
	if err != nil {
		return err
	}
	sn.meter().LogWrite(s.log.Force())
	// The master-record write takes the superblock's shard latch: a fuzzy
	// checkpoint runs under gate.R, where the scrubber may concurrently be
	// repairing page 0 under the same latch.
	sh := s.pool.Lock(superblockPage)
	err = s.writeSuperblock(sn, superblock{
		checkpointLSN: ckptLSN,
		nextPage:      c.nextPage,
		nextTID:       c.nextTID,
		hasCheckpoint: true,
	})
	sh.Unlock()
	if err != nil {
		return err
	}
	atomic.AddInt64(&s.stats.Checkpoints, 1)
	// Reclaim: the log is needed from the oldest of the analysis scan start,
	// any active transaction's first record, any WPL copy still awaiting
	// install, and any dirty page's recLSN (redo starts there).
	head := minUint64(ckptLSN, c.beginLSN)
	for _, t := range c.txns {
		if t.firstLSN != logrec.NoLSN && t.firstLSN < head {
			head = t.firstLSN
		}
	}
	for _, w := range c.wpl {
		if w.lsn < head {
			head = w.lsn
		}
	}
	var minRec uint64
	for _, d := range c.dpt {
		if d.rec < head {
			head = d.rec
		}
		if minRec == 0 || d.rec < minRec {
			minRec = d.rec
		}
	}
	// Publish the recLSN floor: even a truncation computed from stale state
	// (an archiver-driven head, a racing checkpoint) cannot reclaim records
	// redo needs for a still-dirty page.
	s.log.SetTruncateFloor(minRec)
	if s.cfg.PreTruncate != nil {
		if err := s.cfg.PreTruncate(head); err != nil {
			// Archiving failed: leave the log unreclaimed (the archive gate
			// would defer the truncation regardless) and report the
			// checkpoint itself as successful.
			return nil
		}
	}
	return s.log.Truncate(head)
}

func minUint64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

// --- crash and restart -----------------------------------------------------

// Crash simulates a server failure: every volatile structure (buffer pool,
// transaction tables, WPL table, lock table, unforced log tail) is lost. The
// data volume and the forced log survive. Committers parked in group commit
// are woken (their commit outcome is whatever the surviving log says), and
// queued background installs are invalidated by the WPL generation bump.
func (s *Server) Crash() {
	s.gate.Lock()
	defer s.gate.Unlock()
	s.pool.Clear()
	s.attMu.Lock()
	s.att = make(map[logrec.TID]*txn)
	s.attMu.Unlock()
	s.decMu.Lock()
	s.decided = make(map[logrec.TID]decidedTxn)
	s.decMu.Unlock()
	s.dptMu.Lock()
	s.dpt = make(map[page.ID]dptEntry)
	s.dptMu.Unlock()
	s.wplMu.Lock()
	s.wpl = make(map[page.ID]*wplEntry)
	s.wplGen++
	s.wplMu.Unlock()
	s.locks.Reset()
	s.log.Crash()
}

// Restart recovers the server from stable state after a crash, leaving it
// ready for new transactions.
func (sn *Session) Restart() error {
	s := sn.s
	s.gate.Lock()
	defer s.gate.Unlock()
	s.restarting.Store(true)
	defer s.restarting.Store(false)
	atomic.AddInt64(&s.stats.Restarts, 1)
	sb, err := s.readSuperblock()
	if err != nil {
		return err
	}
	s.allocMu.Lock()
	s.nextPage = maxPID(s.nextPage, sb.nextPage)
	s.nextTID = maxTID(s.nextTID, sb.nextTID)
	s.allocMu.Unlock()
	if _, ok := s.store.(*disk.Checksummed); ok {
		// A checksummed volume is verified before any recovery work: every
		// corrupt page is repaired here (from the live log or the archive),
		// so redo and undo replay over sound pages. This cannot be deferred
		// to redo's own fetches — they run inside a log scan, which holds
		// the log mutex repair itself needs.
		if err := s.verifyVolumeQuiesced(sn); err != nil {
			return err
		}
	}
	start := s.log.Head()
	var ckpt *ckptPayload
	if sb.hasCheckpoint {
		rec, err := s.log.ReadAt(sb.checkpointLSN)
		switch {
		case errors.Is(err, wal.ErrBeyondEnd) || errors.Is(err, wal.ErrTruncated):
			// The log does not contain the checkpoint: this is a process
			// restart with a fresh (in-memory) log rather than a crash. The
			// superblock was written after a sharp checkpoint flushed every
			// page, so the volume is consistent as of that checkpoint; only
			// the allocation counters need restoring. (Under fuzzy
			// checkpoints the superblock does NOT imply a flushed volume —
			// a fuzzy deployment on a persistent store must reach this point
			// via orderly shutdown, whose FlushAll provides the same
			// guarantee; see DESIGN.md §13.)
			return s.checkpointQuiesced(sn)
		case err != nil:
			return fmt.Errorf("server: reading checkpoint: %w", err)
		}
		ckpt, err = decodeCkpt(rec.After)
		if err != nil {
			return err
		}
		start = sb.checkpointLSN
		if ckpt.beginLSN > 0 && ckpt.beginLSN < start {
			// Fuzzy checkpoint: analysis must rescan the window between the
			// snapshot capture point and the record's own append.
			start = ckpt.beginLSN
		}
	}
	// Charge the restart log scan.
	sn.meter().LogRead(wal.PagesInRange(start, s.log.StableEnd()))
	if s.cfg.Mode == ModeWPL {
		err = s.wplRestartQuiesced(sn, ckpt, start)
	} else {
		err = s.ariesRestartQuiesced(sn, ckpt, start)
	}
	if err != nil {
		return err
	}
	return s.checkpointQuiesced(sn)
}

func maxPID(a, b page.ID) page.ID {
	if a > b {
		return a
	}
	return b
}

func maxTID(a, b logrec.TID) logrec.TID {
	if a > b {
		return a
	}
	return b
}

// bumpAllocFor advances the allocation counters past a scanned record's ids,
// in whole strides so a sharded server stays in its residue class even when
// the record carries another shard's id (an adopted cross-shard TID). Caller
// holds gate.W (restart) or allocMu (standby apply).
func (s *Server) bumpAllocFor(r *logrec.Record) {
	st := s.stride()
	if r.TID >= s.nextTID {
		n := (uint64(r.TID)-uint64(s.nextTID))/st + 1
		s.nextTID += logrec.TID(n * st)
	}
	if r.Page >= s.nextPage {
		n := (uint64(r.Page)-uint64(s.nextPage))/st + 1
		s.nextPage += page.ID(n * st)
	}
}

// ariesRestartQuiesced runs analysis, redo and undo for ESM/REDO.
func (s *Server) ariesRestartQuiesced(sn *Session, ckpt *ckptPayload, start uint64) error {
	// Analysis: rebuild the transaction table and dirty page table.
	att := make(map[logrec.TID]*txn)
	if ckpt != nil {
		for _, ct := range ckpt.txns {
			att[ct.tid] = &txn{
				tid:      ct.tid,
				lastLSN:  ct.lastLSN,
				firstLSN: ct.firstLSN,
				pageLSN:  make(map[page.ID]uint64),
			}
		}
		// Prepared branches whose PREPARE record predates the scan window are
		// known only through the checkpoint's 2PC trailer.
		for _, cp := range ckpt.prepared {
			if t := att[cp.tid]; t != nil {
				t.prepared = true
				t.coord = cp.coord
				t.parts = append([]int(nil), cp.parts...)
				t.prepLSN = cp.prepLSN
			}
		}
	}
	// Commit decisions awaiting the forget protocol: seeded from the
	// checkpoint, extended by DECIDE records in the scan, retired by forget
	// End records.
	decided := make(map[logrec.TID]decidedTxn)
	if ckpt != nil {
		for _, cd := range ckpt.decided {
			decided[cd.tid] = decidedTxn{lsn: cd.lsn, parts: append([]int(nil), cd.parts...)}
		}
	}
	// The DPT is seeded from the checkpoint's logged entries (fuzzy
	// checkpoints flush nothing, so a page may have been dirty since well
	// before the checkpoint — its recLSN is the only record of that), then
	// extended by the scan with insert-if-absent, which keeps the seeded,
	// lower recLSNs.
	dpt := make(map[page.ID]dptEntry)
	if ckpt != nil {
		for _, d := range ckpt.dpt {
			dpt[d.pid] = dptEntry{rec: d.rec, newest: d.rec}
		}
	}
	scanFrom := start
	if ckpt != nil && ckpt.beginLSN == 0 {
		// Legacy (sharp, pre-DPT) checkpoint: skip the record itself. A fuzzy
		// checkpoint instead scans from beginLSN (= start here); the scan
		// passes over the checkpoint record, which the switch below ignores.
		rec, err := s.log.ReadAt(start)
		if err != nil {
			return err
		}
		scanFrom = start + uint64(rec.EncodedSize())
	}
	redoFrom := logrec.NoLSN
	err := s.log.Scan(scanFrom, func(r *logrec.Record) bool {
		switch r.Type {
		case logrec.TypeUpdate, logrec.TypePageImage, logrec.TypeCLR:
			t := att[r.TID]
			if t == nil {
				t = &txn{tid: r.TID, lastLSN: logrec.NoLSN, firstLSN: logrec.NoLSN, pageLSN: make(map[page.ID]uint64)}
				att[r.TID] = t
			}
			t.lastLSN = r.LSN
			if t.firstLSN == logrec.NoLSN {
				t.firstLSN = r.LSN
			}
			e, ok := dpt[r.Page]
			if !ok {
				e = dptEntry{rec: r.LSN}
			}
			if r.LSN > e.newest {
				e.newest = r.LSN
			}
			dpt[r.Page] = e
		case logrec.TypePrepare:
			t := att[r.TID]
			if t == nil {
				t = &txn{tid: r.TID, lastLSN: logrec.NoLSN, firstLSN: logrec.NoLSN, pageLSN: make(map[page.ID]uint64)}
				att[r.TID] = t
			}
			t.lastLSN = r.LSN
			if t.firstLSN == logrec.NoLSN {
				t.firstLSN = r.LSN
			}
			t.prepared = true
			t.prepLSN = r.LSN
			if coord, parts, perr := logrec.DecodePrepareInfo(r.After); perr == nil {
				t.coord = coord
				t.parts = parts
			}
		case logrec.TypeDecide:
			if _, ok := decided[r.TID]; !ok {
				if _, parts, perr := logrec.DecodePrepareInfo(r.After); perr == nil {
					decided[r.TID] = decidedTxn{lsn: r.LSN, parts: parts}
				}
			}
		case logrec.TypeCommit:
			delete(att, r.TID)
		case logrec.TypeEnd:
			delete(att, r.TID)
			// A forget End retires the decided entry; for a rolled-back loser
			// this is a harmless no-op.
			delete(decided, r.TID)
		case logrec.TypeAbort:
			if t := att[r.TID]; t != nil {
				// The abort decision was delivered before the crash: the branch
				// is an ordinary loser again (its CLRs may be partial), not in
				// doubt.
				t.prepared = false
			}
		}
		s.bumpAllocFor(r)
		return true
	})
	if err != nil {
		return err
	}
	for _, e := range dpt {
		if redoFrom == logrec.NoLSN || e.rec < redoFrom {
			redoFrom = e.rec
		}
	}
	// Redo: repeat history for pages in the DPT, conditional on page LSN,
	// partitioned by page ID across workers.
	if redoFrom != logrec.NoLSN {
		if err := s.redoQuiesced(sn, dpt, redoFrom); err != nil {
			return err
		}
	} else {
		s.redoApplied = nil
	}
	// Undo losers in TID order: undo appends CLRs, and their LSNs must be
	// identical run to run (map iteration is randomized).
	losers := make([]*txn, 0, len(att))
	for _, t := range att {
		losers = append(losers, t)
	}
	sort.Slice(losers, func(i, j int) bool { return losers[i].tid < losers[j].tid })
	for _, t := range losers {
		if t.prepared {
			// In doubt: the branch voted yes and the coordinator's outcome is
			// unknown here. Redo has already reapplied its pages; resurrect the
			// ATT entry with its locks and leave it — neither committed nor
			// rolled back — for recovery resolution (presumed abort on a
			// coordinator miss).
			if err := s.resurrectInDoubt(t); err != nil {
				return err
			}
			continue
		}
		if t.lastLSN != logrec.NoLSN {
			r, err := s.log.ReadAt(t.lastLSN)
			if err != nil {
				return fmt.Errorf("server: restart loser check %v at %d: %w", t.tid, t.lastLSN, err)
			}
			switch r.Type {
			case logrec.TypeCommit:
				// Fuzzy window: the transaction committed — durably, since the
				// checkpoint record's force covered the earlier commit record —
				// but its ATT delete raced the snapshot. Not a loser: write the
				// End its deleter never logged and move on.
				e := logrec.NewEnd(t.tid)
				e.PrevLSN = t.lastLSN
				if _, err := s.log.Append(e); err != nil {
					return err
				}
				continue
			case logrec.TypeEnd:
				// Finished rolling back before the snapshot; nothing to undo.
				continue
			}
		}
		if err := s.undo(sn, t, logrec.NoLSN); err != nil {
			return err
		}
		e := logrec.NewEnd(t.tid)
		e.PrevLSN = t.lastLSN
		if _, err := s.log.Append(e); err != nil {
			return err
		}
	}
	sn.meter().LogWrite(s.log.Force())
	// Install the surviving commit decisions so resolution requests can be
	// answered as soon as the server is open.
	s.decMu.Lock()
	s.decided = decided
	s.decMu.Unlock()
	// Install the analysis DPT, pruned to frames still dirty after redo and
	// undo, so the checkpoint that ends restart — and every fuzzy checkpoint
	// and cleaner pass after it — sees the redone-but-unflushed pages.
	// (Conditional redo leaves pageLSN >= newest for any page it touched, and
	// undo's own CLR bookkeeping has already inserted its pages.)
	dirty := make(map[page.ID]bool)
	for _, pid := range s.pool.DirtyPages() {
		dirty[pid] = true
	}
	s.dptMu.Lock()
	for pid, e := range dpt {
		if !dirty[pid] {
			continue
		}
		if cur, ok := s.dpt[pid]; ok {
			if e.rec < cur.rec {
				cur.rec = e.rec
			}
			if e.newest > cur.newest {
				cur.newest = e.newest
			}
			s.dpt[pid] = cur
		} else {
			s.dpt[pid] = e
		}
	}
	s.dptMu.Unlock()
	return nil
}

// redoRelevant reports whether r must be considered by redo given the DPT.
func redoRelevant(r *logrec.Record, dpt map[page.ID]dptEntry) bool {
	switch r.Type {
	case logrec.TypeUpdate, logrec.TypePageImage, logrec.TypeCLR:
	default:
		return false
	}
	e, ok := dpt[r.Page]
	return ok && r.LSN >= e.rec
}

// redoApplyOne redoes one relevant record if the page's LSN shows it is
// missing, returning 1 if it applied. Safe for concurrent callers on
// different pages (and, via the shard latch, on the same page).
func (s *Server) redoApplyOne(sn *Session, r *logrec.Record) (int64, error) {
	sh := s.pool.Lock(r.Page)
	defer sh.Unlock()
	f, err := s.fetchShardLocked(sn, sh, r.Page, false)
	if err != nil {
		return 0, err
	}
	pg := page.Wrap(f.Bytes())
	if pg.LSN() >= r.LSN && pg.LSN() != 0 {
		return 0, nil // already on disk
	}
	if err := s.applyShardLocked(sn, sh, r); err != nil {
		return 0, err
	}
	return 1, nil
}

// redoQuiesced is the redo pass. With one worker it replays inline, charging
// the session per record as the serial server did. With several, it scans
// once and fans records out by page ID — a page's records all go to the same
// worker, preserving per-page order — then bulk-charges the session for the
// aggregate work. Caller holds gate.W.
func (s *Server) redoQuiesced(sn *Session, dpt map[page.ID]dptEntry, redoFrom uint64) error {
	nw := s.cfg.RedoWorkers
	if nw <= 0 {
		nw = runtime.GOMAXPROCS(0)
	}
	if nw == 1 {
		var applied int64
		var redoErr error
		err := s.log.Scan(redoFrom, func(r *logrec.Record) bool {
			if !redoRelevant(r, dpt) {
				return true
			}
			n, err := s.redoApplyOne(sn, r)
			applied += n
			if err != nil {
				redoErr = err
				return false
			}
			return true
		})
		s.redoApplied = []int64{applied}
		if err != nil {
			return err
		}
		return redoErr
	}

	chans := make([]chan *logrec.Record, nw)
	applied := make([]int64, nw)
	errs := make([]error, nw)
	var wg sync.WaitGroup
	for i := range chans {
		chans[i] = make(chan *logrec.Record, 64)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for r := range chans[i] {
				if errs[i] != nil {
					continue // drain after failure
				}
				n, err := s.redoApplyOne(nil, r)
				applied[i] += n
				if err != nil {
					errs[i] = err
				}
			}
		}(i)
	}
	// Snapshot counters so the session can be bulk-charged for work the
	// meterless workers perform.
	preReads := atomic.LoadInt64(&s.stats.DataReads)
	preWrites := atomic.LoadInt64(&s.stats.DataWrites)
	preLogPages := s.log.PagesWritten()
	scanErr := s.log.Scan(redoFrom, func(r *logrec.Record) bool {
		if !redoRelevant(r, dpt) {
			return true
		}
		// Clone: Scan's record aliases its reusable decode buffer, and this
		// one crosses a channel into another goroutine.
		chans[int(uint64(r.Page)%uint64(nw))] <- r.Clone()
		return true
	})
	for _, ch := range chans {
		close(ch)
	}
	wg.Wait()
	s.redoApplied = applied
	var total int64
	for _, n := range applied {
		total += n
	}
	sn.meter().ServerCompute(time.Duration(total) * sn.params().ServerApply)
	sn.meter().DataRead(int(atomic.LoadInt64(&s.stats.DataReads) - preReads))
	sn.meter().DataWriteAsync(int(atomic.LoadInt64(&s.stats.DataWrites) - preWrites))
	sn.meter().LogWrite(int(s.log.PagesWritten() - preLogPages))
	if scanErr != nil {
		return scanErr
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// wplRestartQuiesced is the paper's §3.4.3 restart: one backward pass from
// the end of the log to the most recent checkpoint building the committed
// transactions list (CTL) and the WPL table, then processing the checkpoint
// record, then installing every recovered copy.
func (s *Server) wplRestartQuiesced(sn *Session, ckpt *ckptPayload, start uint64) error {
	ctl := make(map[logrec.TID]bool)
	table := make(map[page.ID]*wplEntry)
	// 2PC state (DESIGN.md §16), rebuilt in the same backward pass. A
	// transaction is in doubt iff its PREPARE record has no Commit/Abort/End
	// after it — in backward order, iff none of those was seen before the
	// PREPARE. A decision survives iff no (forget) End follows it.
	resolved := make(map[logrec.TID]bool) // Commit/Abort/End seen above
	endSeen := make(map[logrec.TID]bool)
	indoubt := make(map[logrec.TID]*txn)
	images := make(map[logrec.TID][]*wplEntry) // in-doubt copies, newest first
	decided := make(map[logrec.TID]decidedTxn)
	scanFrom := start
	if ckpt != nil && ckpt.beginLSN == 0 {
		// Legacy checkpoint: the backward scan stops just past the record. A
		// fuzzy checkpoint's scan instead runs down to beginLSN (= start), so
		// copies logged between the WPL-table snapshot and the record's
		// append are seen by the pass rather than lost; the checkpoint record
		// itself is ignored by the switch below.
		rec, err := s.log.ReadAt(start)
		if err != nil {
			return err
		}
		scanFrom = start + uint64(rec.EncodedSize())
	}
	err := s.log.ScanBackward(scanFrom, func(r *logrec.Record) bool {
		s.bumpAllocFor(r)
		switch r.Type {
		case logrec.TypeCommit:
			ctl[r.TID] = true
			resolved[r.TID] = true
		case logrec.TypeAbort:
			resolved[r.TID] = true
		case logrec.TypeEnd:
			resolved[r.TID] = true
			endSeen[r.TID] = true
		case logrec.TypeDecide:
			if !endSeen[r.TID] {
				if _, ok := decided[r.TID]; !ok {
					if _, parts, perr := logrec.DecodePrepareInfo(r.After); perr == nil {
						decided[r.TID] = decidedTxn{lsn: r.LSN, parts: parts}
					}
				}
			}
		case logrec.TypePrepare:
			if !resolved[r.TID] {
				t := &txn{
					tid:      r.TID,
					lastLSN:  r.LSN,
					firstLSN: r.LSN,
					pageLSN:  make(map[page.ID]uint64),
					prepared: true,
					prepLSN:  r.LSN,
				}
				if coord, parts, perr := logrec.DecodePrepareInfo(r.After); perr == nil {
					t.coord = coord
					t.parts = parts
				}
				indoubt[r.TID] = t
			}
		case logrec.TypePageImage:
			if ctl[r.TID] {
				if _, ok := table[r.Page]; !ok {
					// Backward scan: first copy seen is the newest committed.
					table[r.Page] = &wplEntry{pid: r.Page, lsn: r.LSN, tid: r.TID, committed: true}
				}
			}
			if t := indoubt[r.TID]; t != nil {
				// The PREPARE lies above its images, so the branch is already
				// known in doubt when its copies stream past.
				images[r.TID] = append(images[r.TID], &wplEntry{pid: r.Page, lsn: r.LSN, tid: r.TID})
				t.firstLSN = r.LSN // monotone: the last assignment is the oldest
			}
		}
		return true
	})
	if err != nil {
		return err
	}
	// Entries in the checkpoint record pertaining to CTL members or already
	// marked committed are added (unless superseded).
	if ckpt != nil {
		for _, w := range ckpt.wpl {
			if !w.committed && !ctl[w.tid] {
				continue
			}
			if cur, ok := table[w.pid]; ok && cur.lsn >= w.lsn {
				continue
			}
			table[w.pid] = &wplEntry{pid: w.pid, lsn: w.lsn, tid: w.tid, committed: true}
		}
		// Prepared branches whose PREPARE record predates the scan window are
		// known only through the checkpoint's 2PC trailer — unless the scan saw
		// their outcome, in which case they are resolved, not in doubt.
		for _, cp := range ckpt.prepared {
			if resolved[cp.tid] {
				continue
			}
			if _, ok := indoubt[cp.tid]; ok {
				continue
			}
			indoubt[cp.tid] = &txn{
				tid:      cp.tid,
				lastLSN:  cp.prepLSN,
				firstLSN: cp.prepLSN,
				pageLSN:  make(map[page.ID]uint64),
				prepared: true,
				prepLSN:  cp.prepLSN,
				coord:    cp.coord,
				parts:    append([]int(nil), cp.parts...),
			}
		}
		// In-doubt copies shipped before the snapshot live only in the
		// checkpointed (uncommitted) table entries.
		for _, w := range ckpt.wpl {
			t := indoubt[w.tid]
			if t == nil || w.committed {
				continue
			}
			images[w.tid] = append(images[w.tid], &wplEntry{pid: w.pid, lsn: w.lsn, tid: w.tid})
			if w.lsn < t.firstLSN {
				t.firstLSN = w.lsn
			}
		}
		for _, cd := range ckpt.decided {
			if endSeen[cd.tid] {
				continue
			}
			if _, ok := decided[cd.tid]; !ok {
				decided[cd.tid] = decidedTxn{lsn: cd.lsn, parts: append([]int(nil), cd.parts...)}
			}
		}
	}
	// Normal processing could resume here; install everything so the log can
	// be reclaimed by the checkpoint that follows. Installs run in page
	// order for run-to-run reproducibility.
	entries := make([]*wplEntry, 0, len(table))
	for _, e := range table {
		entries = append(entries, e)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].pid < entries[j].pid })
	for _, e := range entries {
		rec, err := s.log.ReadAt(e.lsn)
		if err != nil {
			return fmt.Errorf("server: WPL restart install %v: %w", e.pid, err)
		}
		sn.meter().LogRead(1)
		if err := s.store.WritePage(e.pid, rec.After); err != nil {
			return err
		}
		sn.meter().DataWriteAsync(1)
		atomic.AddInt64(&s.stats.DataWrites, 1)
		atomic.AddInt64(&s.stats.WPLInstalls, 1)
	}
	// Resurrect in-doubt branches: rebuild their uncommitted WPL chains (the
	// no-steal rule keeps these copies off their permanent locations until a
	// commit decision arrives; reads reload them from the log), re-acquire
	// their locks, and leave the ATT entries for recovery resolution. Their
	// firstLSN pins the truncation head, so the images stay readable.
	tids := make([]logrec.TID, 0, len(indoubt))
	for tid := range indoubt {
		tids = append(tids, tid)
	}
	sort.Slice(tids, func(i, j int) bool { return tids[i] < tids[j] })
	for _, tid := range tids {
		t := indoubt[tid]
		ents := images[tid]
		// Oldest-first = the original ship order; an image seen by both the
		// scan and the checkpointed table appears twice and is deduped by LSN.
		sort.Slice(ents, func(i, j int) bool { return ents[i].lsn < ents[j].lsn })
		byPage := make(map[page.ID]*wplEntry)
		for _, e := range ents {
			if cur := byPage[e.pid]; cur != nil && cur.lsn == e.lsn {
				continue
			}
			e.prev = byPage[e.pid] // nil for the oldest: below it is the store's committed copy
			byPage[e.pid] = e
			t.wplPages = append(t.wplPages, e.pid)
			t.pageLSN[e.pid] = e.lsn
		}
		s.wplMu.Lock()
		for pid, head := range byPage {
			s.wpl[pid] = head
		}
		s.wplMu.Unlock()
		//qslint:allow determinism: in-doubt age reporting only (qsctl 2pc-status); never logged, no control flow depends on it
		t.prepTime = time.Now()
		s.attMu.Lock()
		s.att[tid] = t
		s.attMu.Unlock()
		if err := s.relockInDoubt(t); err != nil {
			return err
		}
	}
	s.decMu.Lock()
	s.decided = decided
	s.decMu.Unlock()
	return nil
}

// FlushAll writes every dirty buffered page home (used by orderly shutdown
// in the standalone server; not part of the measured protocols).
func (sn *Session) FlushAll() error {
	s := sn.s
	s.gate.Lock()
	defer s.gate.Unlock()
	if s.cfg.Mode == ModeWPL {
		return nil // installs happen at commit; nothing safe to force early
	}
	sn.meter().LogWrite(s.log.Force())
	for _, pid := range s.pool.DirtyPages() {
		sh := s.pool.Lock(pid)
		f := sh.Peek(pid)
		lsn := page.Wrap(f.Bytes()).LSN()
		if err := s.store.WritePage(pid, f.Bytes()); err != nil {
			sh.Unlock()
			return err
		}
		sn.meter().DataWriteAsync(1)
		atomic.AddInt64(&s.stats.DataWrites, 1)
		sh.MarkClean(pid)
		sh.Unlock()
		s.retireDPT(pid, lsn)
	}
	return nil
}
