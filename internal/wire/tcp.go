package wire

// TCP transport: a compact binary protocol for running the server as a
// standalone daemon (cmd/quickstored) with real clients over a socket.
//
// Request frame:  [u32 body-len][u8 op][u64 tid][u32 pid][u8 mode][payload]
// Response frame: [u32 body-len][u8 status][payload]
//
// status 0 means success with result payload; otherwise the payload is an
// error message and the status selects a sentinel so errors.Is works across
// the wire for the errors callers branch on.
//
// Every request gets exactly one response, and a connection's requests are
// served one at a time in arrival order. Ships (ShipLog, ShipPage) are
// one-way on the client: TCPClient buffers the frame and returns without
// waiting, and the next synchronous request carries the buffered ships out
// in the same write and reads their deferred responses, in order, before
// its own. At most shipWindow ships wait for their responses; a ship that
// finds the window full drains it first. Because the stream is ordered, a
// page's log records still reach the server before the page (WAL), and a
// Commit runs only after every ship queued ahead of it. A ship that fails
// server-side aborts its transaction, since the requests the client queued
// behind it (a Commit among them) are already on their way. The server
// flushes its responses only when it has no further request buffered, so
// the responses to a burst of pipelined ships leave in one write.

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/archive"
	"repro/internal/disk"
	"repro/internal/faultinject"
	"repro/internal/lock"
	"repro/internal/logrec"
	"repro/internal/page"
	"repro/internal/repl"
	"repro/internal/server"
)

// Op codes.
const (
	opBegin = iota + 1
	opLock
	opAllocPage
	opReadPage
	opShipLog
	opShipPage
	opCommit
	opAbort
	opFaults    // arm/disarm a fault plan (management, not part of Service)
	opStats     // fetch DaemonStats as JSON (management, not part of Service)
	opBackup    // take an online fuzzy backup (management, not part of Service)
	opArchStats // fetch archive.Status as JSON (management, not part of Service)
	opScrub     // verify/repair stored pages now (management, not part of Service)
	opReplFetch // standby pull of stable WAL records (management, not part of Service)
	opPromote   // promote a standby to primary (management, not part of Service)
	// Two-phase commit (the TwoPC surface; Adopt rides opBegin with tid≠0).
	opPrepare        // force a PREPARE record and vote yes
	opDecide         // deliver the outcome; mode selects abort/commit/forget
	opResolveInDoubt // recovery resolution against the coordinator shard
)

// opDecide mode byte values.
const (
	decideAbort  = 0
	decideCommit = 1
	decideForget = 2
)

// opName returns the stable human-readable name of an op code, used as the
// key of the per-op request counters in DaemonStats.
func opName(op byte) string {
	switch op {
	case opBegin:
		return "begin"
	case opLock:
		return "lock"
	case opAllocPage:
		return "alloc-page"
	case opReadPage:
		return "read-page"
	case opShipLog:
		return "ship-log"
	case opShipPage:
		return "ship-page"
	case opCommit:
		return "commit"
	case opAbort:
		return "abort"
	case opFaults:
		return "faults"
	case opStats:
		return "stats"
	case opBackup:
		return "backup"
	case opArchStats:
		return "archive-status"
	case opScrub:
		return "scrub"
	case opReplFetch:
		return "repl-fetch"
	case opPromote:
		return "promote"
	case opPrepare:
		return "prepare"
	case opDecide:
		return "decide"
	case opResolveInDoubt:
		return "resolve-in-doubt"
	default:
		return fmt.Sprintf("op%d", op)
	}
}

// opCounters counts requests served per op across every connection of one
// daemon, one atomic counter per possible op byte (unknown ops included), so
// counting takes no lock. Snapshots are plain maps keyed by opName holding
// only the ops seen; consumers (qsctl stats) must sort the keys before
// printing.
type opCounters [256]atomic.Int64

func (c *opCounters) inc(op byte) { c[op].Add(1) }

func (c *opCounters) snapshot() map[string]int64 {
	out := make(map[string]int64)
	for op := range c {
		if n := c[op].Load(); n != 0 {
			out[opName(byte(op))] = n
		}
	}
	return out
}

// Status codes.
const (
	stOK = iota
	stError
	stDeadlock
	stNoTxn
	stFaultAbort // a disk fault hit this request; the transaction was aborted
	stCorrupt    // a corrupt page was detected and could not be repaired
	stReplGap    // repl fetch cursor below the primary's log head (re-bootstrap)
	stStandby    // this server is a standby; writes must go to the primary
	stInDoubt    // the transaction is prepared; only its coordinator's decision ends it
)

// ErrTxnAbortedByFault is the client-side form of stFaultAbort: the server
// hit a (typically injected) disk error serving this transaction and
// aborted it rather than failing the process. Not retryable — the
// transaction is gone; the application starts a new one.
var ErrTxnAbortedByFault = errors.New("wire: transaction aborted after server disk fault")

// maxFrame bounds a frame body; pages plus headers fit comfortably.
const maxFrame = 1 << 20

type frame struct {
	op      byte
	tid     logrec.TID
	pid     page.ID
	mode    byte
	payload []byte
}

func writeFrame(w io.Writer, head []byte, payload []byte) error {
	var lenbuf [4]byte
	binary.LittleEndian.PutUint32(lenbuf[:], uint32(len(head)+len(payload)))
	if _, err := w.Write(lenbuf[:]); err != nil {
		return err
	}
	if _, err := w.Write(head); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

func readBody(r io.Reader) ([]byte, error) {
	var lenbuf [4]byte
	if _, err := io.ReadFull(r, lenbuf[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(lenbuf[:])
	if n > maxFrame {
		return nil, fmt.Errorf("wire: frame of %d bytes exceeds limit", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	return body, nil
}

func writeRequest(w io.Writer, f frame) error {
	var head [14]byte
	head[0] = f.op
	binary.LittleEndian.PutUint64(head[1:], uint64(f.tid))
	binary.LittleEndian.PutUint32(head[9:], uint32(f.pid))
	head[13] = f.mode
	return writeFrame(w, head[:], f.payload)
}

func parseRequest(body []byte) (frame, error) {
	if len(body) < 14 {
		return frame{}, errors.New("wire: short request")
	}
	return frame{
		op:      body[0],
		tid:     logrec.TID(binary.LittleEndian.Uint64(body[1:])),
		pid:     page.ID(binary.LittleEndian.Uint32(body[9:])),
		mode:    body[13],
		payload: body[14:],
	}, nil
}

// ServeOpts configures optional server-side transport features.
type ServeOpts struct {
	// Faults, when non-nil, lets clients arm and disarm fault plans on the
	// daemon's data volume through the opFaults management op (qsctl faults).
	Faults *faultinject.Store
	// Archive, when non-nil, serves the opBackup and opArchStats management
	// ops (qsctl backup / archive-status) and adds archiver progress to
	// opStats responses.
	Archive *archive.Archiver
	// Repl, when non-nil, serves opReplFetch (a standby pulling this
	// primary's WAL) and adds shipping progress to opStats responses.
	Repl *repl.Primary
	// Standby, when non-nil, marks this daemon a hot standby: opPromote fails
	// it over to primary, and opStats responses carry apply progress.
	Standby *repl.Standby
}

// DaemonStats is the opStats response: the server's extended counters plus,
// when the daemon archives its log, the archiver's progress snapshot.
type DaemonStats struct {
	server.StatsX
	Archive *archive.Status `json:"archive,omitempty"`
	// Repl is the primary-side shipping snapshot when the daemon ships its
	// WAL to a standby; Standby is the apply snapshot when the daemon is one.
	Repl    *repl.PrimaryStatus `json:"repl,omitempty"`
	Standby *repl.StandbyStatus `json:"standby,omitempty"`
	// Ops counts requests served per wire op since the daemon started.
	Ops map[string]int64 `json:"ops,omitempty"`
	// InDoubt lists prepared-but-unresolved transaction branches on this
	// shard (qsctl 2pc-status and the router's recovery-resolution driver).
	InDoubt []server.InDoubtTxn `json:"in_doubt,omitempty"`
}

// Serve accepts connections on lis and dispatches requests to srv until the
// listener is closed. Each connection gets its own server session and
// goroutine, so multiple workstations can be served concurrently.
func Serve(lis net.Listener, srv *server.Server) error {
	return ServeWith(lis, srv, ServeOpts{})
}

// ServeWith is Serve with options.
func ServeWith(lis net.Listener, srv *server.Server, opts ServeOpts) error {
	d := &daemon{srv: srv, opts: opts}
	for {
		conn, err := lis.Accept()
		if err != nil {
			return err
		}
		go d.serveConn(conn)
	}
}

// daemon is what every connection of one ServeWith shares: the server, the
// optional management surfaces and the per-op request counters.
type daemon struct {
	srv  *server.Server
	opts ServeOpts
	ops  opCounters
}

func (d *daemon) serveConn(conn net.Conn) {
	defer conn.Close()
	sn := d.srv.NewSession(nil, nil)
	r := bufio.NewReaderSize(conn, 64<<10)
	w := bufio.NewWriterSize(conn, 64<<10)
	// Transactions begun on this connection; a client crash (connection
	// drop) aborts whatever is still active so its locks release and the
	// server keeps serving other clients — the availability argument for
	// server-side logs in §6 of the paper.
	active := make(map[logrec.TID]bool)
	defer func() {
		// Abort in TID order: each abort appends log records, and the sweep's
		// replay diff depends on the log byte stream being identical run to
		// run — map order would shuffle it.
		tids := make([]logrec.TID, 0, len(active))
		for tid := range active {
			tids = append(tids, tid)
		}
		sort.Slice(tids, func(i, j int) bool { return tids[i] < tids[j] })
		for _, tid := range tids {
			// A prepared branch refuses the abort (ErrInDoubt) and survives the
			// disconnect: a yes vote binds the shard until the coordinator's
			// decision arrives, client crash or no client crash.
			sn.Abort(tid)
		}
	}()
	for {
		body, err := readBody(r)
		if err != nil {
			return // connection closed
		}
		f, err := parseRequest(body)
		if err != nil {
			return
		}
		d.ops.inc(f.op)
		status, payload := d.dispatch(sn, f)
		switch {
		case status == stOK:
			switch f.op {
			case opBegin:
				active[logrec.TID(binary.LittleEndian.Uint64(payload))] = true
			case opCommit, opAbort:
				delete(active, f.tid)
			case opDecide:
				if f.mode != decideForget {
					delete(active, f.tid)
				}
			}
		case status == stFaultAbort, f.op == opShipLog, f.op == opShipPage:
			// Graceful degradation: a disk fault failed this request, not the
			// process. Abort the affected transaction so its locks release
			// and every other client keeps running. A failed ship aborts it
			// too: the client learns of the failure only after the requests
			// it queued behind the ship, so a Commit among them must find the
			// transaction gone rather than commit it without the ship.
			if active[f.tid] {
				sn.Abort(f.tid)
				delete(active, f.tid)
			}
		}
		if err := writeFrame(w, []byte{status}, payload); err != nil {
			return
		}
		// Coalesce: while more requests are already buffered (pipelined
		// ships), their responses join this one in the next write.
		if r.Buffered() > 0 {
			continue
		}
		if err := w.Flush(); err != nil {
			return
		}
	}
}

// handleFaults serves the opFaults management op. Payload: [u8 arm][i64
// seed][plan name]; response payload is the name of the plan now armed, or
// empty when disarmed.
func handleFaults(fs *faultinject.Store, payload []byte) (byte, []byte) {
	if fs == nil {
		return stError, []byte("wire: fault injection not enabled on this server")
	}
	if len(payload) < 9 {
		return stError, []byte("wire: short faults request")
	}
	arm := payload[0] == 1
	if !arm {
		if err := fs.Disarm(); err != nil {
			return stError, []byte(err.Error())
		}
		return stOK, nil
	}
	seed := int64(binary.LittleEndian.Uint64(payload[1:9]))
	name := string(payload[9:])
	plan, ok := faultinject.Plans()[name]
	if !ok {
		return stError, []byte(fmt.Sprintf("wire: unknown fault plan %q (have %v)", name, faultinject.PlanNames()))
	}
	plan.Seed = seed
	fs.Arm(plan)
	return stOK, []byte(plan.Name)
}

// handleStats serves the opStats management op: the server's extended
// counter snapshot, JSON-encoded (a management op, so a self-describing
// format beats another hand-rolled binary layout).
func (d *daemon) handleStats() (byte, []byte) {
	ds := DaemonStats{StatsX: d.srv.ExtendedStats(), Ops: d.ops.snapshot(), InDoubt: d.srv.InDoubt()}
	if d.opts.Archive != nil {
		st := d.opts.Archive.Status()
		ds.Archive = &st
	}
	if d.opts.Repl != nil {
		st := d.opts.Repl.Status()
		ds.Repl = &st
	}
	if d.opts.Standby != nil {
		st := d.opts.Standby.Status()
		ds.Standby = &st
	}
	out, err := json.Marshal(ds)
	if err != nil {
		return stError, []byte(err.Error())
	}
	return stOK, out
}

// handleBackup serves the opBackup management op: take a fuzzy online backup
// now and return its BackupInfo as JSON.
func handleBackup(arch *archive.Archiver) (byte, []byte) {
	if arch == nil {
		return stError, []byte("wire: archiving not enabled on this server (start with -archive-dir)")
	}
	info, err := arch.Backup()
	if err != nil {
		return stError, []byte(err.Error())
	}
	out, err := json.Marshal(info)
	if err != nil {
		return stError, []byte(err.Error())
	}
	return stOK, out
}

// handleScrub serves the opScrub management op: verify (and repair) stored
// pages now. Payload: [u32 limit]; limit 0 scans the whole volume, a
// positive limit scans the next batch from the daemon's scrub cursor. The
// response is the ScrubReport as JSON; an unrepairable page stops the pass
// and comes back as stCorrupt so the client sees the typed error.
func handleScrub(sn *server.Session, payload []byte) (byte, []byte) {
	limit := 0
	if len(payload) >= 4 {
		limit = int(binary.LittleEndian.Uint32(payload))
	}
	report, err := sn.Scrub(limit)
	if err != nil {
		return stCorrupt, []byte(err.Error())
	}
	out, err := json.Marshal(report)
	if err != nil {
		return stError, []byte(err.Error())
	}
	return stOK, out
}

// handleReplFetch serves the opReplFetch management op: one standby pull.
// Payload: [u64 from][u64 applied][u32 maxBytes]; response payload is
// repl.EncodeBatch. A cursor the primary has already reclaimed comes back as
// stReplGap so the standby sees repl.ErrGap and re-bootstraps.
func handleReplFetch(p *repl.Primary, payload []byte) (byte, []byte) {
	if p == nil {
		return stError, []byte("wire: replication not enabled on this server (start with -repl)")
	}
	if len(payload) < 20 {
		return stError, []byte("wire: short repl-fetch request")
	}
	from := binary.LittleEndian.Uint64(payload)
	applied := binary.LittleEndian.Uint64(payload[8:])
	maxBytes := int(binary.LittleEndian.Uint32(payload[16:]))
	b, err := p.Fetch(from, applied, maxBytes)
	if err != nil {
		if errors.Is(err, repl.ErrGap) {
			return stReplGap, []byte(err.Error())
		}
		return stError, []byte(err.Error())
	}
	return stOK, repl.EncodeBatch(b)
}

// handlePromote serves the opPromote management op: quiesce the apply loop
// and fail the standby over to a writable primary (qsctl promote).
func handlePromote(sb *repl.Standby) (byte, []byte) {
	if sb == nil {
		return stError, []byte("wire: this server is not a standby (start with -replica-of)")
	}
	if err := sb.Promote(); err != nil {
		return stError, []byte(err.Error())
	}
	return stOK, nil
}

// handleArchStats serves the opArchStats management op.
func handleArchStats(arch *archive.Archiver) (byte, []byte) {
	if arch == nil {
		return stError, []byte("wire: archiving not enabled on this server (start with -archive-dir)")
	}
	out, err := json.Marshal(arch.Status())
	if err != nil {
		return stError, []byte(err.Error())
	}
	return stOK, out
}

// dispatch serves one request: every op, Service and management alike, is
// one case of its switch.
func (d *daemon) dispatch(sn *server.Session, f frame) (byte, []byte) {
	fail := func(err error) (byte, []byte) {
		switch {
		case errors.Is(err, lock.ErrDeadlock):
			return stDeadlock, []byte(err.Error())
		case errors.Is(err, server.ErrNoTxn):
			return stNoTxn, []byte(err.Error())
		case errors.Is(err, faultinject.ErrInjected):
			return stFaultAbort, []byte(err.Error())
		case errors.Is(err, disk.ErrCorruptPage):
			return stCorrupt, []byte(err.Error())
		case errors.Is(err, server.ErrStandby):
			return stStandby, []byte(err.Error())
		case errors.Is(err, server.ErrInDoubt):
			return stInDoubt, []byte(err.Error())
		default:
			return stError, []byte(err.Error())
		}
	}
	switch f.op {
	case opFaults:
		return handleFaults(d.opts.Faults, f.payload)
	case opStats:
		return d.handleStats()
	case opReplFetch:
		return handleReplFetch(d.opts.Repl, f.payload)
	case opPromote:
		return handlePromote(d.opts.Standby)
	case opBackup:
		return handleBackup(d.opts.Archive)
	case opArchStats:
		return handleArchStats(d.opts.Archive)
	case opScrub:
		return handleScrub(sn, f.payload)
	case opBegin:
		// A non-zero tid is an Adopt: the router registering a
		// coordinator-issued transaction id on this shard.
		tid := f.tid
		if tid != 0 {
			if err := sn.Adopt(tid); err != nil {
				return fail(err)
			}
		} else {
			tid = sn.Begin()
		}
		var out [8]byte
		binary.LittleEndian.PutUint64(out[:], uint64(tid))
		return stOK, out[:]
	case opLock:
		if err := sn.Lock(f.tid, f.pid, lock.Mode(f.mode)); err != nil {
			return fail(err)
		}
		return stOK, nil
	case opAllocPage:
		pid, err := sn.AllocPage(f.tid)
		if err != nil {
			return fail(err)
		}
		var out [4]byte
		binary.LittleEndian.PutUint32(out[:], uint32(pid))
		return stOK, out[:]
	case opReadPage:
		data, err := sn.ReadPage(f.tid, f.pid, lock.Mode(f.mode))
		if err != nil {
			return fail(err)
		}
		return stOK, data
	case opShipLog:
		if err := sn.ShipLog(f.tid, f.payload); err != nil {
			return fail(err)
		}
		return stOK, nil
	case opShipPage:
		if err := sn.ShipPage(f.tid, f.pid, f.payload); err != nil {
			return fail(err)
		}
		return stOK, nil
	case opCommit:
		if err := sn.Commit(f.tid); err != nil {
			return fail(err)
		}
		return stOK, nil
	case opAbort:
		if err := sn.Abort(f.tid); err != nil {
			return fail(err)
		}
		return stOK, nil
	case opPrepare:
		coord, parts, err := logrec.DecodePrepareInfo(f.payload)
		if err != nil {
			return fail(err)
		}
		if err := sn.Prepare(f.tid, coord, parts); err != nil {
			return fail(err)
		}
		return stOK, nil
	case opDecide:
		switch f.mode {
		case decideAbort, decideCommit:
			if err := sn.Decide(f.tid, f.mode == decideCommit); err != nil {
				return fail(err)
			}
		case decideForget:
			if err := sn.Forget(f.tid); err != nil {
				return fail(err)
			}
		default:
			return stError, []byte(fmt.Sprintf("wire: unknown decide mode %d", f.mode))
		}
		return stOK, nil
	case opResolveInDoubt:
		commit, parts, err := sn.ResolveInDoubt(f.tid)
		if err != nil {
			return fail(err)
		}
		out := make([]byte, 5+4*len(parts))
		if commit {
			out[0] = 1
		}
		binary.LittleEndian.PutUint32(out[1:], uint32(len(parts)))
		for i, p := range parts {
			binary.LittleEndian.PutUint32(out[5+4*i:], uint32(p))
		}
		return stOK, out
	default:
		return stError, []byte(fmt.Sprintf("wire: unknown op %d", f.op))
	}
}

// TCPClient is a Service over a TCP (or any stream) connection, for one
// client workstation. Calls are serialized. Ships (ShipLog, ShipPage) are
// one-way: they are buffered and return at once, and the next synchronous
// call sends them with its own request and reads their responses before
// its own, so a run of ships costs no round trip of its own. A failed ship
// surfaces as the error of that later call (errors.Is works as usual); at
// most shipWindow ships are outstanding at a time.
//
// A client created by Dial remembers its address and reconnects on the next
// call after a broken connection, so a retry layer above it (WithRetry) gets
// a fresh socket per attempt; a client wrapped around a raw connection
// cannot redial. Ships still unanswered when the connection breaks are
// never re-sent: the server aborts a dropped connection's transactions, so
// the next call fails with an error wrapping server.ErrNoTxn that names
// them — except a Commit that was already sent behind them, whose outcome
// is unknown and which fails with the transport error as any Commit does.
type TCPClient struct {
	mu   sync.Mutex
	addr string // non-empty when created by Dial: enables redial
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
	// pending lists the ships written since the last drain, oldest first;
	// their responses are still unread.
	pending []shipped
	// lost is the error owed to the next call after a Redirect or Close
	// dropped the connection with ships pending.
	lost error
}

// shipWindow is how many ships may await their responses. A ship that finds
// the window full drains it, which bounds how long a synchronous call waits
// behind ships and keeps the unread responses (a few bytes each) far below
// any socket buffer, so client and server can never both block writing.
const shipWindow = 16

// shipped names one pending ship, for the error that reports it lost.
type shipped struct {
	op  byte
	tid logrec.TID
	pid page.ID
}

func (s shipped) String() string {
	if s.op == opShipPage {
		return fmt.Sprintf("%s %v %v", opName(s.op), s.tid, s.pid)
	}
	return fmt.Sprintf("%s %v", opName(s.op), s.tid)
}

// Dial connects to a quickstored server.
func Dial(addr string) (*TCPClient, error) {
	c := &TCPClient{addr: addr}
	if err := c.connectLocked(); err != nil {
		return nil, err
	}
	return c, nil
}

// NewTCPClient wraps an established connection.
func NewTCPClient(conn net.Conn) *TCPClient {
	c := &TCPClient{}
	c.attachLocked(conn)
	return c
}

func (c *TCPClient) attachLocked(conn net.Conn) {
	c.conn = conn
	c.r = bufio.NewReaderSize(conn, 64<<10)
	c.w = bufio.NewWriterSize(conn, 64<<10)
}

// connectLocked makes sure there is a connection, dialing the client's
// address again after a drop.
func (c *TCPClient) connectLocked() error {
	if c.conn != nil {
		return nil
	}
	if c.addr == "" {
		return fmt.Errorf("%w: connection closed", net.ErrClosed)
	}
	conn, err := net.Dial("tcp", c.addr)
	if err != nil {
		return err
	}
	c.attachLocked(conn)
	return nil
}

// Close tears down the connection. Ships not yet answered are lost with it.
func (c *TCPClient) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	c.lost = c.loseShipsLocked(net.ErrClosed)
	return err
}

// dropConnLocked discards a connection after a transport error so the next
// call redials instead of reusing a stream with unknown framing state.
func (c *TCPClient) dropConnLocked() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// loseShipsLocked forgets the pending ships of a dropped connection and
// returns the error that reports them, or nil if none were pending.
func (c *TCPClient) loseShipsLocked(cause error) error {
	if len(c.pending) == 0 {
		return nil
	}
	err := fmt.Errorf("%w: connection lost before %d shipped request(s) were answered %v: %v",
		server.ErrNoTxn, len(c.pending), c.pending, cause)
	c.pending = c.pending[:0]
	return err
}

// failLocked handles a transport error: the connection is dropped, and the
// caller gets the lost-ships error if ships were pending, err otherwise.
func (c *TCPClient) failLocked(err error) error {
	c.dropConnLocked()
	if lost := c.loseShipsLocked(err); lost != nil {
		return lost
	}
	return err
}

// readyLocked returns the error still owed from a dropped connection, if
// any, and otherwise makes sure there is a connection to write to.
func (c *TCPClient) readyLocked() error {
	if err := c.lost; err != nil {
		c.lost = nil
		return err
	}
	return c.connectLocked()
}

// readPendingLocked reads the responses owed to the pending ships, oldest
// first. shipErr is the first failed ship's error. err is a transport error,
// after which c.pending holds the ships whose responses were not read.
func (c *TCPClient) readPendingLocked() (shipErr, err error) {
	for i := range c.pending {
		body, err := readBody(c.r)
		if err != nil {
			c.pending = append(c.pending[:0], c.pending[i:]...)
			return shipErr, err
		}
		if _, e := decodeReply(body); e != nil && shipErr == nil {
			shipErr = e
		}
	}
	c.pending = c.pending[:0]
	return shipErr, nil
}

// ship sends a one-way request: it is buffered and counted as pending, and
// its response is read by the next synchronous call or window drain.
func (c *TCPClient) ship(f frame) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.pending) == shipWindow {
		if err := c.w.Flush(); err != nil {
			return c.failLocked(err)
		}
		shipErr, err := c.readPendingLocked()
		if err != nil {
			return c.failLocked(err)
		}
		if shipErr != nil {
			return shipErr
		}
	}
	if err := c.readyLocked(); err != nil {
		return err
	}
	// Pending from here on: if the write fails, this ship is lost too.
	c.pending = append(c.pending, shipped{op: f.op, tid: f.tid, pid: f.pid})
	if err := writeRequest(c.w, f); err != nil {
		return c.failLocked(err)
	}
	return nil
}

// call sends a synchronous request behind any pending ships, in one write,
// and returns its result. A failed ship's error takes precedence over the
// call's own result.
func (c *TCPClient) call(f frame) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.readyLocked(); err != nil {
		return nil, err
	}
	if err := writeRequest(c.w, f); err != nil {
		return nil, c.failLocked(err)
	}
	if err := c.w.Flush(); err != nil {
		return nil, c.failLocked(err)
	}
	shipErr, err := c.readPendingLocked()
	var body []byte
	if err == nil {
		body, err = readBody(c.r)
	}
	switch {
	case err != nil && f.op == opCommit:
		// The commit went out behind the ships, and the server serves a
		// connection in order: it committed after running every one of
		// them, or it aborted the transaction on disconnect. Which is
		// unknown, so this is the ordinary ambiguous commit failure.
		c.dropConnLocked()
		if n := len(c.pending); n > 0 {
			c.pending = c.pending[:0]
			err = fmt.Errorf("%w (commit sent behind %d unanswered ship(s))", err, n)
		}
		return nil, err
	case err != nil:
		return nil, c.failLocked(err)
	case shipErr != nil:
		return nil, shipErr
	}
	return decodeReply(body)
}

// decodeReply splits a response body into its result payload or the error
// its status selects.
func decodeReply(body []byte) ([]byte, error) {
	if len(body) < 1 {
		return nil, errors.New("wire: empty response")
	}
	status, payload := body[0], body[1:]
	switch status {
	case stOK:
		return payload, nil
	case stDeadlock:
		return nil, fmt.Errorf("%w: %s", lock.ErrDeadlock, payload)
	case stNoTxn:
		return nil, fmt.Errorf("%w: %s", server.ErrNoTxn, payload)
	case stFaultAbort:
		return nil, fmt.Errorf("%w: %s", ErrTxnAbortedByFault, payload)
	case stCorrupt:
		return nil, fmt.Errorf("%w: %s", disk.ErrCorruptPage, payload)
	case stReplGap:
		return nil, fmt.Errorf("%w: %s", repl.ErrGap, payload)
	case stStandby:
		return nil, fmt.Errorf("%w: %s", server.ErrStandby, payload)
	case stInDoubt:
		return nil, fmt.Errorf("%w: %s", server.ErrInDoubt, payload)
	default:
		return nil, errors.New(string(payload))
	}
}

// Faults arms the named built-in fault plan with the given seed on the
// server (arm=true), or disarms injection (arm=false). It returns the name
// of the armed plan. The server must have been started with fault injection
// enabled (ServeOpts.Faults).
func (c *TCPClient) Faults(arm bool, name string, seed int64) (string, error) {
	payload := make([]byte, 9+len(name))
	if arm {
		payload[0] = 1
	}
	binary.LittleEndian.PutUint64(payload[1:9], uint64(seed))
	copy(payload[9:], name)
	out, err := c.call(frame{op: opFaults, payload: payload})
	return string(out), err
}

// ServerStats fetches the daemon's extended counter snapshot (qsctl stats),
// including archiver progress when the daemon archives its log.
func (c *TCPClient) ServerStats() (DaemonStats, error) {
	out, err := c.call(frame{op: opStats})
	if err != nil {
		return DaemonStats{}, err
	}
	var x DaemonStats
	if err := json.Unmarshal(out, &x); err != nil {
		return DaemonStats{}, fmt.Errorf("wire: bad stats response: %w", err)
	}
	return x, nil
}

// Backup asks the daemon to take a fuzzy online backup now (qsctl backup).
// The daemon must have been started with archiving enabled.
func (c *TCPClient) Backup() (archive.BackupInfo, error) {
	out, err := c.call(frame{op: opBackup})
	if err != nil {
		return archive.BackupInfo{}, err
	}
	var info archive.BackupInfo
	if err := json.Unmarshal(out, &info); err != nil {
		return archive.BackupInfo{}, fmt.Errorf("wire: bad backup response: %w", err)
	}
	return info, nil
}

// Scrub asks the daemon to verify (and repair) stored pages now (qsctl
// scrub). limit 0 scans the whole volume; a positive limit scans the next
// batch from the daemon's scrub cursor. An unrepairable page surfaces as an
// error matching disk.ErrCorruptPage.
func (c *TCPClient) Scrub(limit int) (server.ScrubReport, error) {
	var payload [4]byte
	binary.LittleEndian.PutUint32(payload[:], uint32(limit))
	out, err := c.call(frame{op: opScrub, payload: payload[:]})
	if err != nil {
		return server.ScrubReport{}, err
	}
	var report server.ScrubReport
	if err := json.Unmarshal(out, &report); err != nil {
		return server.ScrubReport{}, fmt.Errorf("wire: bad scrub response: %w", err)
	}
	return report, nil
}

// ReplFetch pulls one batch of stable WAL records from a primary daemon —
// the wire form of repl.FetchFunc, so a standby daemon can feed
// repl.NewStandby with c.ReplFetch directly.
func (c *TCPClient) ReplFetch(from, applied uint64, maxBytes int) (repl.Batch, error) {
	var payload [20]byte
	binary.LittleEndian.PutUint64(payload[0:], from)
	binary.LittleEndian.PutUint64(payload[8:], applied)
	binary.LittleEndian.PutUint32(payload[16:], uint32(maxBytes))
	out, err := c.call(frame{op: opReplFetch, payload: payload[:]})
	if err != nil {
		return repl.Batch{}, err
	}
	return repl.DecodeBatch(out)
}

// Promote asks a standby daemon to fail over to primary (qsctl promote).
func (c *TCPClient) Promote() error {
	_, err := c.call(frame{op: opPromote})
	return err
}

// Redirect points the client at a different server address — the failover
// hook (RetryPolicy.FailoverAddr): the broken connection is dropped and the
// next call dials addr instead. Only meaningful for clients created by Dial.
func (c *TCPClient) Redirect(addr string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dropConnLocked()
	c.lost = c.loseShipsLocked(errors.New("wire: redirected to " + addr))
	c.addr = addr
}

// ArchiveStatus fetches the daemon's archiver snapshot (qsctl archive-status).
func (c *TCPClient) ArchiveStatus() (archive.Status, error) {
	out, err := c.call(frame{op: opArchStats})
	if err != nil {
		return archive.Status{}, err
	}
	var st archive.Status
	if err := json.Unmarshal(out, &st); err != nil {
		return archive.Status{}, fmt.Errorf("wire: bad archive-status response: %w", err)
	}
	return st, nil
}

// Begin implements Service.
func (c *TCPClient) Begin() (logrec.TID, error) {
	out, err := c.call(frame{op: opBegin})
	if err != nil {
		return 0, err
	}
	if len(out) != 8 {
		return 0, errors.New("wire: bad Begin response")
	}
	return logrec.TID(binary.LittleEndian.Uint64(out)), nil
}

// Lock implements Service.
func (c *TCPClient) Lock(tid logrec.TID, pid page.ID, mode lock.Mode) error {
	_, err := c.call(frame{op: opLock, tid: tid, pid: pid, mode: byte(mode)})
	return err
}

// AllocPage implements Service.
func (c *TCPClient) AllocPage(tid logrec.TID) (page.ID, error) {
	out, err := c.call(frame{op: opAllocPage, tid: tid})
	if err != nil {
		return 0, err
	}
	if len(out) != 4 {
		return 0, errors.New("wire: bad AllocPage response")
	}
	return page.ID(binary.LittleEndian.Uint32(out)), nil
}

// ReadPage implements Service.
func (c *TCPClient) ReadPage(tid logrec.TID, pid page.ID, mode lock.Mode) ([]byte, error) {
	out, err := c.call(frame{op: opReadPage, tid: tid, pid: pid, mode: byte(mode)})
	if err != nil {
		return nil, err
	}
	if len(out) != page.Size {
		return nil, fmt.Errorf("wire: ReadPage returned %d bytes", len(out))
	}
	return out, nil
}

// ShipLog implements Service. It is one-way: a nil error means the batch is
// queued, and a server-side failure surfaces from a later call.
func (c *TCPClient) ShipLog(tid logrec.TID, data []byte) error {
	return c.ship(frame{op: opShipLog, tid: tid, payload: data})
}

// ShipPage implements Service, one-way like ShipLog.
func (c *TCPClient) ShipPage(tid logrec.TID, pid page.ID, data []byte) error {
	return c.ship(frame{op: opShipPage, tid: tid, pid: pid, payload: data})
}

// Commit implements Service.
func (c *TCPClient) Commit(tid logrec.TID) error {
	_, err := c.call(frame{op: opCommit, tid: tid})
	return err
}

// Abort implements Service.
func (c *TCPClient) Abort(tid logrec.TID) error {
	_, err := c.call(frame{op: opAbort, tid: tid})
	return err
}

var _ Service = (*TCPClient)(nil)
