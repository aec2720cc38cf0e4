package main

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/costmodel"
	"repro/internal/oo7"
	"repro/internal/page"
	"repro/internal/wire"
)

// t2b runs one T2B traversal over mod as one transaction. The meter is a
// no-op: this is real execution, not the simulated 1995 testbed.
func t2b(bc *benchClient, mod *oo7.Module) error {
	_, err := oo7.Run(bc.c, mod, oo7.T2B, costmodel.NopMeter{}, costmodel.Default1995())
	return err
}

// oo7WL: the paper's big OO7 database with one module per client. Two
// PD-ESM clients each run T2B over their own module in a closed loop, over
// TCP loopback to an in-process wire.Serve.
type oo7WL struct {
	e         *env
	n         *node
	lis       net.Listener
	served    chan error
	db        *oo7.Database
	parts     [][]page.OID
	model     []partModel
	committed []int // T2B traversals committed per module
	markers   []page.OID
	stamps    []uint64
	conns     []*wire.TCPClient
	cls       []*benchClient
	ledger    clientLedger
}

func setupOO7(e *env) (instance, error) {
	n, err := e.newNode(schemes[0], "oo7")
	if err != nil {
		return nil, err
	}
	w := &oo7WL{e: e, n: n, committed: make([]int, nClients), stamps: make([]uint64, nClients)}
	if err := w.build(); err != nil {
		w.close()
		return nil, fmt.Errorf("oo7 set-up: %w", err)
	}
	return w, nil
}

func (w *oo7WL) build() error {
	builder := newPlainClient(w.n.sc, wire.NewDirect(w.n.srv, nil, nil))
	cfg := oo7.BigConfig()
	cfg.NumModules = nClients
	db, err := oo7.Build(builder, cfg, w.e.seed)
	if err != nil {
		return err
	}
	w.db = db
	init := make([][]byte, nClients)
	for i := range init {
		init[i] = markerValue(w.e.seed, 0)
	}
	if w.markers, err = newObjects(builder, markerBytes, init); err != nil {
		return err
	}
	if err := w.n.checkpoint(); err != nil {
		return err
	}
	if w.lis, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return err
	}
	w.served = make(chan error, 1)
	go func() { w.served <- wire.Serve(w.lis, w.n.srv) }()
	for i := 0; i < nClients; i++ {
		if err := w.dial(i); err != nil {
			return err
		}
	}
	// Each client calibrates its module, which also warms the server pool
	// and the client's own cache.
	w.parts = make([][]page.OID, nClients)
	w.model = make([]partModel, nClients)
	return w.each(func(i int) error {
		var err error
		w.parts[i], w.model[i], err = calibrate(w.cls[i], &w.db.Modules[i])
		w.committed[i] = 1
		return err
	})
}

// dial (re)connects client i over a new TCP connection.
func (w *oo7WL) dial(i int) error {
	c, err := wire.Dial(w.lis.Addr().String())
	if err != nil {
		return err
	}
	bc := w.e.newClient(w.n.sc, c)
	if i < len(w.cls) {
		w.conns[i], w.cls[i] = c, bc
	} else {
		w.conns, w.cls = append(w.conns, c), append(w.cls, bc)
	}
	return nil
}

// each runs fn for every client concurrently and returns the first error.
func (w *oo7WL) each(fn func(i int) error) error {
	errs := make([]error, nClients)
	var wg sync.WaitGroup
	for i := 0; i < nClients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (w *oo7WL) live() []*benchClient { return w.cls }

func (w *oo7WL) run(p *phase, d time.Duration) {
	win := w.e.openWindow([]*node{w.n}, &w.ledger, w.live)
	deadline := time.Now().Add(d)
	commitLat := make([][]int64, nClients)
	txnLat := make([][]int64, nClients)
	attempted := make([]int, nClients)
	err := w.each(func(i int) error {
		bc := w.cls[i]
		bc.t.commitLat = &commitLat[i]
		defer func() { bc.t.commitLat = nil }()
		for time.Now().Before(deadline) {
			attempted[i]++
			lat, err := w.e.txn(bc, func() error { return t2b(bc, &w.db.Modules[i]) })
			if err != nil {
				return fmt.Errorf("client %d: %w", i, err)
			}
			w.committed[i]++
			txnLat[i] = append(txnLat[i], lat)
		}
		return nil
	})
	win.close(p)
	p.commitLat = append(p.commitLat, concat(commitLat))
	p.txnLat = append(p.txnLat, concat(txnLat))
	for i := 0; i < nClients; i++ {
		p.attempted += attempted[i]
	}
	if err != nil {
		p.fail(err)
	}
}

// crash runs one crash cycle: a checkpoint, one in-flight T2B per client
// whose shipped work has reached the server, a crash, and restart until
// client 0's marker update commits.
func (w *oo7WL) crash(p *phase) {
	if err := w.n.checkpoint(); err != nil {
		p.fail(fmt.Errorf("checkpoint before a crash: %w", err))
		return
	}
	p.attempted += nClients
	err := w.each(func(i int) error {
		bc := w.cls[i]
		bc.t.cut = true
		if _, err := w.e.txn(bc, func() error { return t2b(bc, &w.db.Modules[i]) }); !errors.Is(err, errCut) {
			return fmt.Errorf("in-flight traversal: got %v, want the withheld commit", err)
		}
		return nil
	})
	if err != nil {
		p.fail(err)
		return
	}
	p.attempted++
	rec, err := w.e.crashRestart(w.n, func() error {
		for i, bc := range w.cls {
			w.ledger.retire(bc.c)
			w.conns[i].Close()
		}
		if err := w.dial(0); err != nil {
			return err
		}
		_, err := w.e.txn(w.cls[0], func() error {
			return writeObject(w.cls[0].c, w.markers[0], markerValue(w.e.seed, w.stamps[0]+1))
		})
		if err == nil {
			w.stamps[0]++
		}
		return err
	})
	if err != nil {
		p.fail(err)
		return
	}
	p.restarts = append(p.restarts, rec)
	for i := 1; i < nClients; i++ {
		if err := w.dial(i); err != nil {
			p.fail(err)
			return
		}
	}
}

// check reads every atomic part and marker through a fresh client: each
// part must hold its start value plus its module's committed T2B count.
func (w *oo7WL) check(p *phase) {
	c := newPlainClient(w.n.sc, wire.NewDirect(w.n.srv, nil, nil))
	for i := 0; i < nClients; i++ {
		p.attempted++
		got, err := readXY(c, w.parts[i])
		if err != nil {
			p.fail(fmt.Errorf("oo7 check, module %d: %w", i, err))
			continue
		}
		if bad := w.model[i].check(w.committed[i], got); bad > 0 {
			p.fail(fmt.Errorf("oo7 check, module %d: %d of %d atomic parts differ from %d committed traversals",
				i, bad, len(got), w.committed[i]))
		}
	}
	p.attempted++
	got, err := readObjects(c, w.markers)
	if err != nil {
		p.fail(fmt.Errorf("oo7 marker check: %w", err))
		return
	}
	for i, g := range got {
		if !checkMarker(w.e.seed, w.stamps[i], g) {
			p.fail(fmt.Errorf("oo7 marker check: marker %d does not hold stamp %d", i, w.stamps[i]))
			return
		}
	}
}

func (w *oo7WL) close() {
	for _, c := range w.conns {
		c.Close()
	}
	if w.lis != nil {
		w.lis.Close()
		<-w.served
	}
	w.n.close()
}
