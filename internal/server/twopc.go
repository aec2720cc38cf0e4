package server

// Presumed-abort two-phase commit, participant and coordinator sides
// (DESIGN.md §16). Every shard runs this same code; a cross-shard
// transaction's coordinator shard additionally logs the DECIDE record that is
// the transaction's commit point and keeps the decided-transactions map that
// answers recovery resolution.
//
// Protocol, as driven by the router (internal/shard):
//
//	phase 1: Prepare on every participant — each forces a PREPARE record
//	         (carrying coordinator + participant set) before voting yes.
//	phase 2: Decide(commit) on the coordinator first — logDecision forces the
//	         DECIDE record, the commit point — then on the other participants;
//	         finally Forget on the coordinator once all have committed.
//	abort:   Decide(abort) everywhere; nothing is logged for the decision
//	         itself (presumed abort), the branches just roll back.
//
// A branch that crashes between Prepare and Decide restarts in doubt: restart
// analysis resurrects its ATT entry with locks held (internal/server/
// restart.go), and ResolveInDoubt answers the router's recovery resolution —
// present in decided means commit, absent means presumed abort.

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/lock"
	"repro/internal/logrec"
	"repro/internal/page"
)

// decidedTxn is a coordinator-side commit decision awaiting the forget
// protocol: the DECIDE record is stable, and the entry survives until every
// participant has confirmed its commit (Forget). Guarded by decMu.
type decidedTxn struct {
	lsn   uint64 // location of the DECIDE record
	parts []int  // participant set, echoed to resolution callers
}

// InDoubtTxn describes one prepared-but-unresolved transaction branch, as
// reported by qsctl 2pc-status.
type InDoubtTxn struct {
	TID         logrec.TID
	Coordinator int
	Age         time.Duration
}

// Adopt registers a coordinator-issued transaction id on this shard, creating
// an empty ATT entry for it. Residue-class TID allocation (Config.ShardID/
// ShardCount) guarantees the id cannot collide with a local allocation.
// Idempotent: re-adopting an active id is a no-op, so retried joins are safe.
func (sn *Session) Adopt(tid logrec.TID) error {
	s := sn.s
	if s.standby.Load() {
		return ErrStandby
	}
	defer s.enter()()
	s.attMu.Lock()
	defer s.attMu.Unlock()
	if _, ok := s.att[tid]; ok {
		return nil
	}
	s.att[tid] = &txn{
		tid:      tid,
		lastLSN:  logrec.NoLSN,
		firstLSN: logrec.NoLSN,
		pageLSN:  make(map[page.ID]uint64),
	}
	return nil
}

// Prepare votes yes on behalf of tid's branch: the PREPARE record (carrying
// the coordinator identity and participant set) is appended and forced before
// the call returns, so a yes vote survives any crash. From here until Decide
// the branch is in doubt — it holds its locks and refuses unilateral
// Commit/Abort. Idempotent under re-delivery.
func (sn *Session) Prepare(tid logrec.TID, coordinator int, participants []int) error {
	s := sn.s
	if s.standby.Load() {
		return ErrStandby
	}
	exit := s.enter()
	t, ok := s.lookupTxn(tid)
	if !ok {
		exit()
		return fmt.Errorf("%w: %v", ErrNoTxn, tid)
	}
	if t.prepared {
		exit()
		return nil // re-delivered vote request; the first force stands
	}
	p := logrec.NewPrepare(tid, coordinator, participants)
	p.PrevLSN = t.lastLSN
	// Append + ATT chain + prepared marking: one attMu critical section, so a
	// fuzzy checkpoint either snapshots the branch as prepared or re-analyzes
	// the PREPARE record from its scan window (the same invariant as Commit).
	s.attMu.Lock()
	if _, err := s.log.Append(p); err != nil {
		s.attMu.Unlock()
		exit()
		return err
	}
	t.lastLSN = p.LSN
	if t.firstLSN == logrec.NoLSN {
		t.firstLSN = p.LSN
	}
	t.prepared = true
	t.coord = coordinator
	t.parts = append([]int(nil), participants...)
	t.prepLSN = p.LSN
	//qslint:allow determinism: in-doubt age reporting only (qsctl 2pc-status); never logged, no control flow depends on it
	t.prepTime = time.Now()
	s.attMu.Unlock()
	// The yes vote must be stable before it is uttered: ride group commit
	// exactly as a commit force does.
	sn.m.LogWrite(s.log.CommitWait(p.LSN + uint64(p.EncodedSize())))
	atomic.AddInt64(&s.stats.TwoPCPrepares, 1)
	exit()
	return nil
}

// Decide delivers the coordinator's outcome to tid's branch on this shard.
// On the coordinator shard a commit decision first logs and forces the DECIDE
// record (the transaction's commit point) and enters it in the decided map;
// then — on every shard — the branch finishes through the normal Commit or
// Abort path, releasing its locks. Idempotent: deciding a finished branch is
// a no-op, so the router may re-deliver after partial failures.
func (sn *Session) Decide(tid logrec.TID, commit bool) error {
	s := sn.s
	if s.standby.Load() {
		return ErrStandby
	}
	if commit {
		if err := sn.logDecision(tid); err != nil {
			return err
		}
	}
	t, ok := s.lookupTxn(tid)
	if !ok {
		return nil // branch already finished; re-delivery
	}
	s.attMu.Lock()
	t.prepared = false // fate known: Commit/Abort below may proceed
	s.attMu.Unlock()
	if commit {
		return sn.Commit(tid)
	}
	return sn.Abort(tid)
}

// logDecision makes tid's commit decision stable if this shard is its
// coordinator and the decision is not already on record. The forced DECIDE
// record is the commit point of the whole cross-shard transaction.
func (sn *Session) logDecision(tid logrec.TID) error {
	s := sn.s
	exit := s.enter()
	t, ok := s.lookupTxn(tid)
	if !ok || !t.prepared || t.coord != s.cfg.ShardID {
		// Not ours to decide (participant shard), not prepared (single-shard
		// fast path), or already finished — nothing to log.
		exit()
		return nil
	}
	// The DECIDE append is deliberately NOT chained into the branch's PrevLSN
	// chain: restart's loser check must still find the PREPARE at lastLSN to
	// classify the branch, and the decision's own life cycle is the decided
	// map + forget End, not the undo chain.
	d := logrec.NewDecide(tid, t.coord, t.parts)
	d.PrevLSN = logrec.NoLSN
	s.attMu.Lock()
	s.decMu.Lock()
	if _, done := s.decided[tid]; done {
		s.decMu.Unlock()
		s.attMu.Unlock()
		exit()
		return nil
	}
	if _, err := s.log.Append(d); err != nil {
		s.decMu.Unlock()
		s.attMu.Unlock()
		exit()
		return err
	}
	s.decided[tid] = decidedTxn{lsn: d.LSN, parts: append([]int(nil), t.parts...)}
	s.decMu.Unlock()
	s.attMu.Unlock()
	sn.m.LogWrite(s.log.CommitWait(d.LSN + uint64(d.EncodedSize())))
	exit()
	return nil
}

// Forget ends the presumed-abort forget protocol for a decided transaction:
// once every participant has confirmed its commit, the coordinator logs an
// End and drops the decided entry, so resolution state cannot grow without
// bound. The End is not forced — losing it merely resurrects the decided
// entry at restart, and a later resolution or Forget retires it again
// (idempotent). A no-op for unknown tids.
func (sn *Session) Forget(tid logrec.TID) error {
	s := sn.s
	if s.standby.Load() {
		return ErrStandby
	}
	defer s.enter()()
	s.attMu.Lock()
	s.decMu.Lock()
	if _, ok := s.decided[tid]; !ok {
		s.decMu.Unlock()
		s.attMu.Unlock()
		return nil
	}
	e := logrec.NewEnd(tid)
	e.PrevLSN = logrec.NoLSN
	if _, err := s.log.Append(e); err != nil {
		s.decMu.Unlock()
		s.attMu.Unlock()
		return err
	}
	delete(s.decided, tid)
	s.decMu.Unlock()
	s.attMu.Unlock()
	return nil
}

// ResolveInDoubt answers a recovery-resolution request for tid, asked of the
// coordinator shard by (or on behalf of) an in-doubt participant: commit if
// the decision is on record, presumed abort otherwise. Pure lookup — safe to
// re-ask any number of times.
func (sn *Session) ResolveInDoubt(tid logrec.TID) (commit bool, participants []int, err error) {
	s := sn.s
	if s.standby.Load() {
		return false, nil, ErrStandby
	}
	defer s.enter()()
	atomic.AddInt64(&s.stats.TwoPCResolutions, 1)
	s.decMu.Lock()
	d, ok := s.decided[tid]
	s.decMu.Unlock()
	if ok {
		return true, append([]int(nil), d.parts...), nil
	}
	atomic.AddInt64(&s.stats.TwoPCPresumedAborts, 1)
	return false, nil, nil
}

// InDoubt lists the prepared-but-unresolved transaction branches on this
// shard, sorted by TID (qsctl 2pc-status).
func (s *Server) InDoubt() []InDoubtTxn {
	s.attMu.Lock()
	var out []InDoubtTxn
	for _, t := range s.att {
		if t.prepared {
			out = append(out, InDoubtTxn{
				TID:         t.tid,
				Coordinator: t.coord,
				//qslint:allow determinism: in-doubt age reporting only (qsctl 2pc-status); never logged, no control flow depends on it
				Age: time.Since(t.prepTime),
			})
		}
	}
	s.attMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].TID < out[j].TID })
	return out
}

// InDoubt lists this shard's in-doubt branches through a session, for the
// in-process wire transport.
func (sn *Session) InDoubt() []InDoubtTxn { return sn.s.InDoubt() }

// resurrectInDoubt installs an in-doubt branch discovered by restart analysis
// (ESM/REDO path) into the live ATT with its locks held. The branch's page
// set is rebuilt by walking its PrevLSN chain — every record of an active
// branch is at or above the truncation head, so the walk cannot fall off the
// log — which covers branches seeded from a checkpoint's 2PC trailer whose
// updates predate the analysis scan window. Caller holds gate.W.
func (s *Server) resurrectInDoubt(t *txn) error {
	cur := t.lastLSN
	for cur != logrec.NoLSN {
		r, err := s.log.ReadAt(cur)
		if err != nil {
			return fmt.Errorf("server: in-doubt %v page walk at %d: %w", t.tid, cur, err)
		}
		switch r.Type {
		case logrec.TypeUpdate, logrec.TypePageImage:
			if _, ok := t.pageLSN[r.Page]; !ok {
				t.pageLSN[r.Page] = r.LSN // newest first: keep the first seen
			}
			cur = r.PrevLSN
		case logrec.TypeCLR:
			// Partial rollback before the prepare: the CLR's page matches the
			// undone update's, so recording it and skipping via UndoNext still
			// covers every touched page.
			if _, ok := t.pageLSN[r.Page]; !ok {
				t.pageLSN[r.Page] = r.LSN
			}
			cur = r.UndoNext
		default:
			cur = r.PrevLSN
		}
	}
	//qslint:allow determinism: in-doubt age reporting only (qsctl 2pc-status); never logged, no control flow depends on it
	t.prepTime = time.Now()
	s.attMu.Lock()
	s.att[t.tid] = t
	s.attMu.Unlock()
	return s.relockInDoubt(t)
}

// relockInDoubt re-acquires an in-doubt branch's exclusive page locks at
// restart, before new sessions are admitted, so the branch keeps isolating
// its uncommitted (redo-reapplied) pages until resolution. The server is
// quiesced, so every acquisition is immediate. Caller holds gate.W.
func (s *Server) relockInDoubt(t *txn) error {
	pids := make([]page.ID, 0, len(t.pageLSN))
	for pid := range t.pageLSN {
		pids = append(pids, pid)
	}
	for _, pid := range t.wplPages {
		if _, ok := t.pageLSN[pid]; !ok {
			pids = append(pids, pid)
			t.pageLSN[pid] = t.prepLSN
		}
	}
	sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })
	for _, pid := range pids {
		if err := s.locks.Lock(t.tid, pid, lock.Exclusive); err != nil {
			return fmt.Errorf("server: relocking in-doubt %v on %v: %w", t.tid, pid, err)
		}
	}
	return nil
}
