package wire

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/lock"
	"repro/internal/logrec"
	"repro/internal/page"
	"repro/internal/server"
)

// serveLoopback starts srv on a loopback listener and returns its address.
func serveLoopback(t *testing.T, srv *server.Server) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	go Serve(lis, srv)
	return lis.Addr().String()
}

func dialT(t *testing.T, addr string) *TCPClient {
	t.Helper()
	cli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	return cli
}

func stamp(pid page.ID) []byte { return []byte(fmt.Sprintf("%-8s", pid)) }

// stampedPage returns a fresh page image for pid whose first slot holds
// stamp(pid), plus that slot.
func stampedPage(pid page.ID) (*page.Page, int) {
	pg := page.New(pid)
	slot, _ := pg.Allocate(8)
	pg.WriteAt(slot, 0, stamp(pid))
	return pg, slot
}

// killConn closes the client's socket under it, as a network failure would.
func killConn(cli *TCPClient) {
	cli.mu.Lock()
	cli.conn.Close()
	cli.mu.Unlock()
}

// TestPipelinedShipBurst: ten windows' worth of 8 KB page ships, each behind
// its log record, go out with no synchronous call in between. The burst must
// not deadlock, the commit behind it must cover every page, and the reply
// stream must stay aligned for the calls that follow.
func TestPipelinedShipBurst(t *testing.T) {
	srv := testServer(server.ModeESM)
	addr := serveLoopback(t, srv)
	cli := dialT(t, addr)

	const n = 10 * shipWindow
	tid, err := cli.Begin()
	if err != nil {
		t.Fatal(err)
	}
	pids := make([]page.ID, n)
	for i := range pids {
		if pids[i], err = cli.AllocPage(tid); err != nil {
			t.Fatal(err)
		}
	}
	slots := make([]int, n)
	burst := make(chan error, 1)
	go func() {
		for i, pid := range pids {
			pg, slot := stampedPage(pid)
			slots[i] = slot
			if err := cli.ShipLog(tid, logrec.NewPageImage(tid, pid, pg.Bytes()).Encode(nil)); err != nil {
				burst <- err
				return
			}
			if err := cli.ShipPage(tid, pid, pg.Bytes()); err != nil {
				burst <- err
				return
			}
		}
		burst <- nil
	}()
	select {
	case err := <-burst:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("ship burst deadlocked")
	}
	if err := cli.Commit(tid); err != nil {
		t.Fatal(err)
	}
	if len(cli.pending) != 0 {
		t.Fatalf("%d ships still pending after a synchronous call", len(cli.pending))
	}
	// The same connection still pairs each reply with its request.
	if _, err := cli.Begin(); err != nil {
		t.Fatalf("Begin after the burst: %v", err)
	}
	ds, err := cli.ServerStats()
	if err != nil {
		t.Fatal(err)
	}
	if ds.Ops["ship-log"] != n || ds.Ops["ship-page"] != n {
		t.Fatalf("server saw %d ship-log and %d ship-page, want %d each", ds.Ops["ship-log"], ds.Ops["ship-page"], n)
	}

	// A fresh client reads the committed bytes back.
	reader := dialT(t, addr)
	rtid, err := reader.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for i, pid := range pids {
		data, err := reader.ReadPage(rtid, pid, lock.Shared)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 8)
		page.Wrap(data).ReadAt(slots[i], 0, got)
		if want := stamp(pid); !bytes.Equal(got, want) {
			t.Fatalf("page %v = %q, want %q", pid, got, want)
		}
	}
}

// TestShipErrorSurfacesAtNextCall: a ship for an unknown transaction is
// answered with ErrNoTxn no later than the next synchronous call, and the
// connection still serves requests afterwards.
func TestShipErrorSurfacesAtNextCall(t *testing.T) {
	srv := testServer(server.ModeESM)
	cli := dialT(t, serveLoopback(t, srv))

	const bogus = logrec.TID(987654)
	pg := page.New(1)
	err := cli.ShipLog(bogus, logrec.NewPageImage(bogus, 1, pg.Bytes()).Encode(nil))
	if err == nil {
		_, err = cli.ServerStats() // succeeds on its own; must carry the ship's error
	}
	if !errors.Is(err, server.ErrNoTxn) || !strings.Contains(err.Error(), bogus.String()) {
		t.Fatalf("ship for %v: err = %v, want ErrNoTxn naming it", bogus, err)
	}
	tid, err := cli.Begin()
	if err != nil || tid == 0 {
		t.Fatalf("Begin after a failed ship = %v, %v: framing lost", tid, err)
	}
	if _, err := cli.ServerStats(); err != nil {
		t.Fatalf("stats after a failed ship: %v", err)
	}
}

// TestFailedShipAbortsItsTransaction: the Commit queued behind a ship that
// failed server-side must not commit the transaction without it. The server
// aborts the transaction when the ship fails; the client sees the ship's
// error from the Commit.
func TestFailedShipAbortsItsTransaction(t *testing.T) {
	srv := testServer(server.ModeESM)
	addr := serveLoopback(t, srv)
	cli := dialT(t, addr)

	tid, err := cli.Begin()
	if err != nil {
		t.Fatal(err)
	}
	pid, err := cli.AllocPage(tid)
	if err != nil {
		t.Fatal(err)
	}
	pg, _ := stampedPage(pid)
	if err := cli.ShipLog(tid, logrec.NewPageImage(tid, pid, pg.Bytes()).Encode(nil)); err != nil {
		t.Fatal(err)
	}
	// pid+1000 is not X-locked by tid: the server refuses the page.
	if err := cli.ShipPage(tid, pid+1000, pg.Bytes()); err != nil {
		t.Fatal(err)
	}
	commits := srv.Stats().Commits
	err = cli.Commit(tid)
	if err == nil || !strings.Contains(err.Error(), "not locked") {
		t.Fatalf("Commit behind a failed ship = %v, want the ship's error", err)
	}
	if got := srv.Stats().Commits; got != commits {
		t.Fatalf("commits %d -> %d: the transaction committed without its failed ship", commits, got)
	}
	if err := cli.Abort(tid); !errors.Is(err, server.ErrNoTxn) {
		t.Fatalf("Abort after the failed ship = %v, want ErrNoTxn (already aborted)", err)
	}
	// Its lock is gone: another client takes the page exclusively at once.
	other := dialT(t, addr)
	otid, err := other.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Lock(otid, pid, lock.Exclusive); err != nil {
		t.Fatalf("lock of the aborted transaction's page: %v", err)
	}
}

// shipTwo begins a transaction on cli and leaves a log ship and a page ship
// pending for it.
func shipTwo(t *testing.T, cli *TCPClient) logrec.TID {
	t.Helper()
	tid, err := cli.Begin()
	if err != nil {
		t.Fatal(err)
	}
	pid, err := cli.AllocPage(tid)
	if err != nil {
		t.Fatal(err)
	}
	pg, _ := stampedPage(pid)
	if err := cli.ShipLog(tid, logrec.NewPageImage(tid, pid, pg.Bytes()).Encode(nil)); err != nil {
		t.Fatal(err)
	}
	if err := cli.ShipPage(tid, pid, pg.Bytes()); err != nil {
		t.Fatal(err)
	}
	if len(cli.pending) != 2 {
		t.Fatalf("%d ships pending, want 2", len(cli.pending))
	}
	return tid
}

// TestLostConnectionFailsPendingShips: ships pending when the socket dies
// are never re-sent on a new connection. The next call reports them lost
// with ErrNoTxn; through the retry layer the transaction cannot commit and
// its Abort counts as done.
func TestLostConnectionFailsPendingShips(t *testing.T) {
	srv := testServer(server.ModeESM)
	addr := serveLoopback(t, srv)
	commits := srv.Stats().Commits

	cli := dialT(t, addr)
	tid := shipTwo(t, cli)
	killConn(cli)
	_, err := cli.Begin()
	if !errors.Is(err, server.ErrNoTxn) || !strings.Contains(err.Error(), "ship-log "+tid.String()) ||
		!strings.Contains(err.Error(), "ship-page "+tid.String()) {
		t.Fatalf("call after losing pending ships = %v, want ErrNoTxn naming both", err)
	}
	if _, err := cli.Begin(); err != nil {
		t.Fatalf("client did not redial after reporting the lost ships: %v", err)
	}

	cli2 := dialT(t, addr)
	tid2 := shipTwo(t, cli2)
	killConn(cli2)
	svc := WithRetry(cli2, RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond})
	if err := svc.Commit(tid2); err == nil {
		t.Fatal("Commit succeeded after its ships were lost with the connection")
	}
	if err := svc.Abort(tid2); err != nil {
		t.Fatalf("Abort after lost ships = %v, want nil (the server already aborted)", err)
	}
	if got := srv.Stats().Commits; got != commits {
		t.Fatalf("commits %d -> %d after both transactions lost their ships", commits, got)
	}
}

// TestOpCountersExact: two connections issue known requests concurrently;
// the daemon's per-op counters must hold exactly those counts.
func TestOpCountersExact(t *testing.T) {
	srv := testServer(server.ModeESM)
	addr := serveLoopback(t, srv)
	const n = 25
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		cli := dialT(t, addr)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				tid, err := cli.Begin()
				if err != nil {
					t.Error(err)
					return
				}
				pid, err := cli.AllocPage(tid)
				if err != nil {
					t.Error(err)
					return
				}
				pg, _ := stampedPage(pid)
				if err := cli.ShipLog(tid, logrec.NewPageImage(tid, pid, pg.Bytes()).Encode(nil)); err != nil {
					t.Error(err)
					return
				}
				if err := cli.ShipPage(tid, pid, pg.Bytes()); err != nil {
					t.Error(err)
					return
				}
				if err := cli.Commit(tid); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	ds, err := dialT(t, addr).ServerStats()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{
		"begin": 2 * n, "alloc-page": 2 * n, "ship-log": 2 * n, "ship-page": 2 * n,
		"commit": 2 * n, "stats": 1,
	}
	if !reflect.DeepEqual(ds.Ops, want) {
		t.Fatalf("ops = %v, want %v", ds.Ops, want)
	}
}
