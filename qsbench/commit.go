package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/page"
	"repro/internal/wire"
)

const (
	// commitWarmup commits per client before timing, so pools, the log
	// ring and the allocator are past their first-touch costs.
	commitWarmup = 256
	// commitCrashCycles crash cycles follow the commit window, with
	// commitsPerCycle commits per client since the last checkpoint (below
	// the 64-commit checkpoint interval, so redo has that many to replay).
	commitCrashCycles = 200
	commitsPerCycle   = 20
)

// commitWL: two embedded PD-ESM clients, each writing 64 bytes to its own
// object and committing, in a closed loop.
type commitWL struct {
	e      *env
	n      *node
	cls    []*benchClient
	oids   []page.OID
	last   []uint64 // each client's last committed write number
	ledger clientLedger
}

func setupCommit(e *env) (instance, error) {
	n, err := e.newNode(schemes[0], "commit")
	if err != nil {
		return nil, err
	}
	w := &commitWL{e: e, n: n, last: make([]uint64, nClients)}
	init := make([][]byte, nClients)
	for i := range init {
		init[i] = objectValue(e.seed, i, 0)
	}
	for i := 0; i < nClients; i++ {
		w.cls = append(w.cls, w.newClient())
	}
	// Each object on its own page, so the clients never share a page.
	for i := range w.cls {
		oids, err := newObjects(w.cls[i].c, objectBytes, init[i:i+1])
		if err != nil {
			w.close()
			return nil, fmt.Errorf("commit set-up: %w", err)
		}
		w.oids = append(w.oids, oids[0])
	}
	for i := range w.cls {
		buf := objectValue(e.seed, i, 0)
		for k := 0; k < commitWarmup; k++ {
			if err := w.commitNext(i, buf); err != nil {
				w.close()
				return nil, fmt.Errorf("commit warm-up: %w", err)
			}
		}
	}
	return w, nil
}

func (w *commitWL) newClient() *benchClient {
	return w.e.newClient(w.n.sc, wire.NewDirect(w.n.srv, nil, nil))
}

// commitNext commits client i's next write; buf is the client's object
// image, whose write number it overwrites.
func (w *commitWL) commitNext(i int, buf []byte) error {
	seq := w.last[i] + 1
	binary.LittleEndian.PutUint64(buf[8:], seq)
	if err := writeObject(w.cls[i].c, w.oids[i], buf); err != nil {
		return err
	}
	w.last[i] = seq
	return nil
}

func (w *commitWL) live() []*benchClient { return w.cls }

func (w *commitWL) run(p *phase, d time.Duration) {
	win := w.e.openWindow([]*node{w.n}, &w.ledger, w.live)
	deadline := time.Now().Add(d)
	commitLat := make([][]int64, nClients)
	txnLat := make([][]int64, nClients)
	errs := make([]error, nClients)
	attempted := make([]int, nClients)
	var wg sync.WaitGroup
	for i := range w.cls {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			bc := w.cls[i]
			bc.t.commitLat = &commitLat[i]
			defer func() { bc.t.commitLat = nil }()
			buf := objectValue(w.e.seed, i, 0)
			for time.Now().Before(deadline) {
				attempted[i]++
				lat, err := w.e.txn(bc, func() error { return w.commitNext(i, buf) })
				if err != nil {
					errs[i] = err
					return
				}
				txnLat[i] = append(txnLat[i], lat)
			}
		}(i)
	}
	wg.Wait()
	win.close(p)
	p.commitLat = append(p.commitLat, concat(commitLat))
	p.txnLat = append(p.txnLat, concat(txnLat))
	for i := range w.cls {
		p.attempted += attempted[i]
		if errs[i] != nil {
			p.fail(fmt.Errorf("client %d: %w", i, errs[i]))
		}
	}
}

// crash runs one crash cycle: a checkpoint, commitsPerCycle commits per
// client, one in-flight transaction per client whose work has reached the
// server, a crash, and restart until client 0's next write commits.
func (w *commitWL) crash(p *phase) {
	if err := w.n.checkpoint(); err != nil {
		p.fail(fmt.Errorf("checkpoint before a crash: %w", err))
		return
	}
	bufs := make([][]byte, nClients)
	for i := range bufs {
		bufs[i] = objectValue(w.e.seed, i, 0)
	}
	for i := range w.cls {
		for k := 0; k < commitsPerCycle; k++ {
			p.attempted++
			if _, err := w.e.txn(w.cls[i], func() error { return w.commitNext(i, bufs[i]) }); err != nil {
				p.fail(err)
				return
			}
		}
	}
	for i, bc := range w.cls {
		p.attempted++
		bc.t.cut = true
		_, err := w.e.txn(bc, func() error {
			binary.LittleEndian.PutUint64(bufs[i][8:], w.last[i]+1)
			return writeObject(bc.c, w.oids[i], bufs[i])
		})
		if !errors.Is(err, errCut) {
			p.fail(fmt.Errorf("in-flight transaction: got %v, want the withheld commit", err))
			return
		}
	}
	p.attempted++
	for _, bc := range w.cls {
		w.ledger.retire(bc.c)
	}
	rec, err := w.e.crashRestart(w.n, func() error {
		w.cls[0] = w.newClient()
		_, err := w.e.txn(w.cls[0], func() error { return w.commitNext(0, bufs[0]) })
		return err
	})
	if err != nil {
		p.fail(err)
		return
	}
	p.restarts = append(p.restarts, rec)
	for i := 1; i < nClients; i++ {
		w.cls[i] = w.newClient()
	}
}

// check reads both objects through a fresh client: each must hold its
// client's last committed write.
func (w *commitWL) check(p *phase) {
	p.attempted++
	got, err := readObjects(newPlainClient(w.n.sc, wire.NewDirect(w.n.srv, nil, nil)), w.oids)
	if err != nil {
		p.fail(fmt.Errorf("commit check: %w", err))
		return
	}
	if bad := checkObjects(w.e.seed, w.last, got); bad > 0 {
		p.fail(fmt.Errorf("commit check: %d of %d objects do not hold their last committed write", bad, len(w.oids)))
	}
}

func (w *commitWL) close() { w.n.close() }
