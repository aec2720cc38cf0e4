package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/client"
	"repro/internal/disk"
	"repro/internal/oo7"
	"repro/internal/page"
	"repro/internal/server"
	"repro/internal/wire"
)

// nClients is the number of concurrent clients on the commit and oo7
// workloads: one per vCPU of the two-vCPU machine the benchmark was sized
// on.
const nClients = 2

// scheme is one of the paper's five recovery schemes: a client scheme
// against a server mode.
type scheme struct {
	name string
	cs   client.Scheme
	mode server.Mode
}

var schemes = []scheme{
	{"pd_esm", client.PD, server.ModeESM},
	{"sd_esm", client.SD, server.ModeESM},
	{"sl_esm", client.SL, server.ModeESM},
	{"pd_redo", client.PD, server.ModeREDO},
	{"wpl", client.WPL, server.ModeWPL},
}

func schemeNamed(name string) scheme {
	for _, sc := range schemes {
		if sc.name == name {
			return sc
		}
	}
	panic("qsbench: no scheme " + name)
}

// env is what one workload instance is built in: its volume directory, the
// run's seed, and the tracer (nil in untraced runs).
type env struct {
	dir  string
	seed int64
	tr   *tracer
}

// node is one server over a file-backed volume. Every server setting is
// left at its default.
type node struct {
	sc  scheme
	fs  *disk.FileStore
	ts  *tracedStore // nil in untraced runs
	srv *server.Server
	// Log bytes appended since startLog, carried across crashes (a crash
	// drops the unforced tail, so the end LSN moves back).
	logBase, logAppended uint64
}

func (e *env) newNode(sc scheme, name string) (*node, error) {
	fs, err := disk.OpenFileStore(filepath.Join(e.dir, name+".vol"))
	if err != nil {
		return nil, err
	}
	n := &node{sc: sc, fs: fs}
	var store disk.Store = fs
	if e.tr != nil {
		n.ts = &tracedStore{Store: fs, tr: e.tr}
		store = n.ts
	}
	n.srv = server.New(server.Config{Mode: sc.mode, Store: store})
	return n, nil
}

func (n *node) close() {
	n.srv.Close()
	n.fs.Close()
}

func (n *node) checkpoint() error { return n.srv.NewSession(nil, nil).Checkpoint() }

func (n *node) startLog() {
	n.logBase = n.srv.Log().End()
	n.logAppended = 0
}

func (n *node) noteLog() uint64 {
	if end := n.srv.Log().End(); end > n.logBase {
		n.logAppended += end - n.logBase
	}
	n.logBase = n.srv.Log().End()
	return n.logAppended
}

// benchClient is one client with the transport the benchmark puts under it.
type benchClient struct {
	c *client.Client
	t *transport
}

func (e *env) newClient(sc scheme, svc wire.Service) *benchClient {
	t := &transport{inner: svc, tr: e.tr}
	return &benchClient{c: newPlainClient(sc, t), t: t}
}

// newPlainClient is a client with the default 8 MB pool and 4 MB recovery
// buffer, used directly for building databases and for correctness checks.
func newPlainClient(sc scheme, svc wire.Service) *client.Client {
	return client.New(client.Config{Scheme: sc.cs, ShipDirtyPages: sc.mode != server.ModeREDO}, svc)
}

// txn runs fn as one client transaction, recording its span in traced runs,
// and returns its latency.
func (e *env) txn(bc *benchClient, fn func() error) (int64, error) {
	var id uint64
	var s int64
	if e.tr != nil {
		id, s = e.tr.newID(), e.tr.now()
		bc.t.txn = id
	}
	t0 := time.Now()
	err := fn()
	d := int64(time.Since(t0))
	if e.tr != nil {
		e.tr.record(kTxn, id, 0, s)
		bc.t.txn = 0
	}
	return d, err
}

// restartRec is one crash cycle's recovery.
type restartRec struct {
	scheme       string
	restart      int64 // ns inside Session.Restart
	firstCommit  int64 // ns from Restart's return to the first commit's ack
	recovery     int64 // crash to first commit acknowledged: restart + firstCommit
	redoRecords  int64 // log records restart applied
	redoDistance int64 // stable log bytes restart had to rescan at the crash
	spanID       uint64
}

// crashRestart crashes n (whatever is in flight stays in flight), restarts
// it, and runs first, which must commit one small update; the recovery
// interval runs from the Restart call to that commit's acknowledgement.
func (e *env) crashRestart(n *node, first func() error) (restartRec, error) {
	// Collect first, so no collection lands in the timed interval. It also
	// bounds the garbage between crashes: on the restart workload five
	// servers each hold a 256 MB log ring, mostly untouched, that the
	// collector counts as live heap and would otherwise pad its target with.
	runtime.GC()
	before := n.srv.ExtendedStats()
	rec := restartRec{scheme: n.sc.name, redoDistance: before.RedoDistanceBytes}
	n.noteLog()
	n.srv.Crash()
	n.logBase = n.srv.Log().End()
	var s int64
	if e.tr != nil {
		rec.spanID, s = e.tr.newID(), e.tr.now()
		n.ts.parent.Store(rec.spanID)
	}
	t0 := time.Now()
	err := n.srv.NewSession(nil, nil).Restart()
	t1 := time.Now()
	if e.tr != nil {
		e.tr.record(kRestart, rec.spanID, 0, s)
		n.ts.parent.Store(0)
	}
	if err != nil {
		return rec, fmt.Errorf("restart %s: %w", n.sc.name, err)
	}
	rec.redoRecords = n.srv.ExtendedStats().LogRecordsApplied - before.LogRecordsApplied
	if err := first(); err != nil {
		return rec, fmt.Errorf("first commit after restarting %s: %w", n.sc.name, err)
	}
	t2 := time.Now()
	rec.restart, rec.firstCommit, rec.recovery = int64(t1.Sub(t0)), int64(t2.Sub(t1)), int64(t2.Sub(t0))
	return rec, nil
}

// writeObject commits data as the whole contents of oid.
func writeObject(c *client.Client, oid page.OID, data []byte) error {
	tx, err := c.Begin()
	if err != nil {
		return err
	}
	if err := tx.Write(oid, 0, data); err != nil {
		tx.Abort()
		return err
	}
	return tx.Commit()
}

// newObjects allocates one object of size bytes per initial value on a
// fresh page and commits the values.
func newObjects(c *client.Client, size int, init [][]byte) ([]page.OID, error) {
	tx, err := c.Begin()
	if err != nil {
		return nil, err
	}
	if _, err := tx.NewPage(); err != nil {
		tx.Abort()
		return nil, err
	}
	oids := make([]page.OID, len(init))
	for i, v := range init {
		if oids[i], err = tx.Allocate(size); err == nil {
			err = tx.Write(oids[i], 0, v)
		}
		if err != nil {
			tx.Abort()
			return nil, err
		}
	}
	return oids, tx.Commit()
}

// readObjects reads the objects in one transaction.
func readObjects(c *client.Client, oids []page.OID) ([][]byte, error) {
	tx, err := c.Begin()
	if err != nil {
		return nil, err
	}
	defer tx.Abort()
	out := make([][]byte, len(oids))
	for i, oid := range oids {
		b, err := tx.ReadObject(oid)
		if err != nil {
			return nil, err
		}
		out[i] = append([]byte(nil), b...)
	}
	return out, nil
}

// calibrate lists a module's atomic parts, reads them, commits one T2B
// traversal over the module through bc and reads them again, which yields
// the model the correctness checks hold the module to.
func calibrate(bc *benchClient, mod *oo7.Module) ([]page.OID, partModel, error) {
	parts, err := oo7.CollectAtomicParts(bc.c, mod)
	if err != nil {
		return nil, partModel{}, err
	}
	before, err := readXY(bc.c, parts)
	if err != nil {
		return nil, partModel{}, err
	}
	if err := t2b(bc, mod); err != nil {
		return nil, partModel{}, err
	}
	after, err := readXY(bc.c, parts)
	if err != nil {
		return nil, partModel{}, err
	}
	m, err := newPartModel(before, after)
	return parts, m, err
}

func readXY(c *client.Client, parts []page.OID) ([]xy, error) {
	tx, err := c.Begin()
	if err != nil {
		return nil, err
	}
	defer tx.Abort()
	out := make([]xy, len(parts))
	for i, p := range parts {
		x, y, err := oo7.ReadXY(tx, p)
		if err != nil {
			return nil, err
		}
		out[i] = xy{x, y}
	}
	return out, nil
}
