// fixture-path: repro/qslintfixtures/latchok
//
// Negative latch-order fixture: legal acquisition orders, the enter()/exit()
// gate idiom, branch-dependent release, and the TryLock-then-Lock contention
// idiom the real buffer.Sharded.Lock uses. No diagnostics expected.
package latchok

import (
	"sync"

	"repro/internal/buffer"
	"repro/internal/page"
)

type node struct {
	gate  sync.RWMutex
	attMu sync.Mutex
	wplMu sync.Mutex
	pool  *buffer.Sharded
}

func (n *node) enter() func() {
	n.gate.RLock()
	return n.gate.RUnlock
}

// fullOrder walks the whole legal chain gate → shard → leaf.
func (n *node) fullOrder(pid page.ID) {
	defer n.enter()()
	sh := n.pool.Lock(pid)
	n.attMu.Lock()
	n.attMu.Unlock()
	sh.Unlock()
}

// sequential holds one shard latch at a time: never two at once.
func (n *node) sequential(a, b page.ID) {
	sh := n.pool.Lock(a)
	sh.Unlock()
	sh2 := n.pool.Lock(b)
	sh2.Unlock()
}

// contended is the TryLock idiom from buffer.Sharded.Lock: the failure
// branch runs unlatched and falls through latched either way.
func (n *node) contended(i int) {
	sh := n.pool.Shard(i)
	if !sh.TryLock() {
		sh.Lock()
	}
	sh.Unlock()
}

// branches releases on the error path and falls through holding: both arms
// stay within the order.
func (n *node) branches(pid page.ID, fail bool) {
	sh := n.pool.Lock(pid)
	if fail {
		sh.Unlock()
		return
	}
	n.wplMu.Lock()
	n.wplMu.Unlock()
	sh.Unlock()
}
