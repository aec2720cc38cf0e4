// fixture-path: repro/qslintfixtures/seededserver
//
// A scratch copy of the real server's latch fields with one deliberately
// seeded latch-order inversion per §S9 direction: leaf before shard, and
// shard before gate. The clean functions exercise the legal order and the
// enter()/exit() gate idiom so the analyzer's negative paths run too.
package seededserver

import (
	"sync"

	"repro/internal/buffer"
	"repro/internal/page"
)

// Server mirrors the latch fields of the real internal/server.Server.
type Server struct {
	gate    sync.RWMutex
	attMu   sync.Mutex
	dptMu   sync.Mutex
	allocMu sync.Mutex
	pool    *buffer.Sharded
}

// enter takes the session gate in read mode and returns the releaser,
// exactly like the real server's gate idiom.
func (s *Server) enter() func() {
	s.gate.RLock()
	return s.gate.RUnlock
}

// fix follows the legal order gate → shard → leaf: clean.
func (s *Server) fix(pid page.ID) {
	defer s.enter()()
	sh := s.pool.Lock(pid)
	s.dptMu.Lock()
	s.dptMu.Unlock()
	sh.Unlock()
}

// commitBroken seeds two inversions: a leaf mutex held across a shard
// acquire, and a shard latch held across the gate.
func (s *Server) commitBroken(pid page.ID) {
	s.attMu.Lock()
	sh := s.pool.Lock(pid) // want "inverts"
	sh.Unlock()
	s.attMu.Unlock()
	sh2 := s.pool.Lock(pid)
	exit := s.enter() // want "inverts"
	exit()
	sh2.Unlock()
}
