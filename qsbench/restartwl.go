package main

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/oo7"
	"repro/internal/page"
	"repro/internal/wire"
)

// rnode is one restart-workload server: a scheme holding one small-DB
// module.
type rnode struct {
	*node
	mod       *oo7.Module
	parts     []page.OID
	model     partModel
	committed int // T2B traversals committed over the module
	marker    page.OID
	stamp     uint64
	bc        *benchClient
}

// restartWL: five embedded servers, one per scheme. Crash cycles rotate
// round-robin through them, always in whole rounds, so each scheme weighs
// the same in the pooled recovery figures.
type restartWL struct {
	e      *env
	nodes  []*rnode
	ledger clientLedger
}

func setupRestart(e *env) (instance, error) {
	w := &restartWL{e: e}
	// The seed picks which scheme leads the rotation.
	first := int(uint64(e.seed) % uint64(len(schemes)))
	for k := range schemes {
		sc := schemes[(first+k)%len(schemes)]
		rn, err := w.setupNode(sc)
		if rn != nil {
			w.nodes = append(w.nodes, rn)
		}
		if err != nil {
			w.close()
			return nil, fmt.Errorf("restart set-up, %s: %w", sc.name, err)
		}
	}
	return w, nil
}

func (w *restartWL) setupNode(sc scheme) (*rnode, error) {
	n, err := w.e.newNode(sc, sc.name)
	if err != nil {
		return nil, err
	}
	rn := &rnode{node: n, bc: w.e.newClient(sc, wire.NewDirect(n.srv, nil, nil))}
	cfg := oo7.SmallConfig()
	cfg.NumModules = 1
	db, err := oo7.Build(rn.bc.c, cfg, w.e.seed)
	if err != nil {
		return rn, err
	}
	rn.mod = &db.Modules[0]
	markers, err := newObjects(rn.bc.c, markerBytes, [][]byte{markerValue(w.e.seed, 0)})
	if err != nil {
		return rn, err
	}
	rn.marker = markers[0]
	if rn.parts, rn.model, err = calibrate(rn.bc, rn.mod); err != nil {
		return rn, err
	}
	rn.committed = 1
	return rn, n.checkpoint()
}

func (w *restartWL) live() []*benchClient {
	out := make([]*benchClient, len(w.nodes))
	for i, rn := range w.nodes {
		out[i] = rn.bc
	}
	return out
}

// run repeats whole rounds of crash cycles until d has passed.
func (w *restartWL) run(p *phase, d time.Duration) {
	nodes := make([]*node, len(w.nodes))
	for i, rn := range w.nodes {
		nodes[i] = rn.node
	}
	win := w.e.openWindow(nodes, &w.ledger, w.live)
	var commitLat, txnLat []int64
	defer func() {
		win.close(p)
		p.commitLat = append(p.commitLat, commitLat)
		p.txnLat = append(p.txnLat, txnLat)
	}()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		for _, rn := range w.nodes {
			if err := w.cycle(p, rn, &commitLat, &txnLat); err != nil {
				p.fail(fmt.Errorf("%s: %w", rn.sc.name, err))
				return
			}
		}
	}
}

// cycle runs two committed T2B traversals since the last checkpoint (the
// restart that ended the previous cycle took one), leaves a third in flight
// with its work shipped, crashes, restarts until a marker update commits,
// and checks that every committed increment survived and the in-flight one
// did not.
func (w *restartWL) cycle(p *phase, rn *rnode, commitLat, txnLat *[]int64) error {
	rn.bc.t.commitLat = commitLat
	for k := 0; k < 2; k++ {
		p.attempted++
		lat, err := w.e.txn(rn.bc, func() error { return t2b(rn.bc, rn.mod) })
		if err != nil {
			return err
		}
		rn.committed++
		*txnLat = append(*txnLat, lat)
	}
	rn.bc.t.commitLat = nil
	p.attempted++
	rn.bc.t.cut = true
	if _, err := w.e.txn(rn.bc, func() error { return t2b(rn.bc, rn.mod) }); !errors.Is(err, errCut) {
		return fmt.Errorf("in-flight traversal: got %v, want the withheld commit", err)
	}
	p.attempted++
	rec, err := w.e.crashRestart(rn.node, func() error {
		w.ledger.retire(rn.bc.c)
		rn.bc = w.e.newClient(rn.sc, wire.NewDirect(rn.srv, nil, nil))
		_, err := w.e.txn(rn.bc, func() error {
			return writeObject(rn.bc.c, rn.marker, markerValue(w.e.seed, rn.stamp+1))
		})
		if err == nil {
			rn.stamp++
		}
		return err
	})
	if err != nil {
		return err
	}
	p.restarts = append(p.restarts, rec)
	p.attempted++
	if err := rn.verify(w.e.seed); err != nil {
		p.fail(err)
	}
	return nil
}

// verify reads the module and the marker through a fresh client.
func (rn *rnode) verify(seed int64) error {
	c := newPlainClient(rn.sc, wire.NewDirect(rn.srv, nil, nil))
	got, err := readXY(c, rn.parts)
	if err != nil {
		return fmt.Errorf("%s check: %w", rn.sc.name, err)
	}
	if bad := rn.model.check(rn.committed, got); bad > 0 {
		return fmt.Errorf("%s check: %d of %d atomic parts differ from %d committed traversals", rn.sc.name, bad, len(got), rn.committed)
	}
	m, err := readObjects(c, []page.OID{rn.marker})
	if err != nil {
		return fmt.Errorf("%s marker check: %w", rn.sc.name, err)
	}
	if !checkMarker(seed, rn.stamp, m[0]) {
		return fmt.Errorf("%s marker check: marker does not hold stamp %d", rn.sc.name, rn.stamp)
	}
	return nil
}

// crash is never asked for: the restart window is made of crash cycles.
func (w *restartWL) crash(*phase) {}

// check re-verifies every server's final state.
func (w *restartWL) check(p *phase) {
	for _, rn := range w.nodes {
		p.attempted++
		if err := rn.verify(w.e.seed); err != nil {
			p.fail(err)
		}
	}
}

func (w *restartWL) close() {
	for _, rn := range w.nodes {
		rn.close()
	}
}
