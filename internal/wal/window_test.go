package wal

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/logrec"
	"repro/internal/page"
)

// scanClones returns Scan's records from from on, cloned out of its shared
// decode buffer: the reference a Window must reproduce.
func scanClones(t *testing.T, l *Log, from uint64) []*logrec.Record {
	t.Helper()
	var out []*logrec.Record
	if err := l.Scan(from, func(r *logrec.Record) bool {
		out = append(out, r.Clone())
		return true
	}); err != nil {
		t.Fatalf("scan from %d: %v", from, err)
	}
	return out
}

// sameRecords fails unless the window holds exactly want, field for field.
func sameRecords(t *testing.T, w *Window, want []*logrec.Record) {
	t.Helper()
	if len(w.Recs) != len(want) {
		t.Fatalf("window has %d records, scan %d", len(w.Recs), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(&w.Recs[i], want[i]) {
			t.Fatalf("record %d: window %v, scan %v", i, &w.Recs[i], want[i])
		}
	}
	wantEnd := w.Start
	if n := len(want); n > 0 {
		wantEnd = want[n-1].LSN + uint64(want[n-1].EncodedSize())
	}
	if w.End != wantEnd {
		t.Fatalf("window end %d, want %d", w.End, wantEnd)
	}
}

// TestWindowMatchesScanAcrossWrap: on a small ring that wraps several times,
// a window from the head, and from a later record boundary, decodes exactly
// the records Scan delivers; ReadAt finds each by LSN.
func TestWindowMatchesScanAcrossWrap(t *testing.T) {
	const capacity = 4 * page.Size
	l := New(capacity)
	// Append, reclaiming as the ring fills, until the log has wrapped a few
	// times and the retained range spans the wrap point.
	for i := 0; i < 60 || l.Head()/capacity == (l.End()-1)/capacity; i++ {
		if i == 10000 {
			t.Fatal("test construction: retained log never spans the wrap point")
		}
		if _, err := l.Append(upd(logrec.TID(i%7+1), page.ID(i%5+1), 16+i%400)); err != nil {
			t.Fatal(err)
		}
		l.Force()
		if l.Used() > capacity/2 {
			// Keep the last few records; reclaim the rest.
			recs := scanClones(t, l, l.Head())
			if err := l.Truncate(recs[len(recs)-4].LSN); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := scanClones(t, l, l.Head())
	w, err := l.Window(l.Head())
	if err != nil {
		t.Fatal(err)
	}
	sameRecords(t, w, want)
	for _, r := range want {
		got, err := w.ReadAt(r.LSN)
		if err != nil || got.LSN != r.LSN {
			t.Fatalf("ReadAt(%d) = %v, %v", r.LSN, got, err)
		}
	}

	// A window from a later boundary: the older records come from the log.
	mid := want[len(want)/2].LSN
	w2, err := l.Window(mid)
	if err != nil {
		t.Fatal(err)
	}
	sameRecords(t, w2, want[len(want)/2:])
	if got := w2.Index(mid); got != 0 {
		t.Fatalf("Index(start) = %d, want 0", got)
	}
	if got := w2.Index(w2.End); got != len(w2.Recs) {
		t.Fatalf("Index(end) = %d, want %d", got, len(w2.Recs))
	}
	below, err := w2.ReadAt(want[0].LSN)
	if err != nil || !reflect.DeepEqual(below, want[0]) {
		t.Fatalf("ReadAt below the window = %v, %v; want %v", below, err, want[0])
	}
	if _, err := w2.ReadAt(mid + 1); err == nil {
		t.Fatal("ReadAt of a non-boundary LSN succeeded")
	}
	if _, err := w2.ReadAt(w2.End); !errors.Is(err, ErrBeyondEnd) {
		t.Fatalf("ReadAt(end) = %v, want ErrBeyondEnd", err)
	}
}

// TestWindowTornTailEndsCleanly: a record cut off by the end of the log, or
// one whose CRC fails where it reaches the stable end (a torn write's
// surviving prefix), ends the window without error, as it ends Scan.
func TestWindowTornTailEndsCleanly(t *testing.T) {
	build := func() (*Log, uint64) {
		l := New(1 << 20)
		for i := 0; i < 5; i++ {
			l.Append(upd(1, page.ID(i+1), 64))
		}
		last, _ := l.Append(upd(2, 9, 3000))
		l.Force()
		return l, last
	}

	t.Run("cut", func(t *testing.T) {
		l, last := build()
		// The durability boundary inside the last record, as a page-grained
		// flush leaves it before Crash trims the log back to a boundary.
		l.next = last + logrec.HeaderSize + 10
		l.flushed = l.next
		w, err := l.Window(l.Head())
		if err != nil {
			t.Fatal(err)
		}
		sameRecords(t, w, scanClones(t, l, l.Head()))
		if len(w.Recs) != 5 || w.End != last {
			t.Fatalf("window has %d records ending at %d, want 5 ending at %d", len(w.Recs), w.End, last)
		}
	})

	t.Run("crc", func(t *testing.T) {
		l, last := build()
		l.ring[(last+logrec.HeaderSize+100)%l.capacity] ^= 0xff
		w, err := l.Window(l.Head())
		if err != nil {
			t.Fatal(err)
		}
		sameRecords(t, w, scanClones(t, l, l.Head()))
		if len(w.Recs) != 5 || w.End != last {
			t.Fatalf("window has %d records ending at %d, want 5 ending at %d", len(w.Recs), w.End, last)
		}
	})
}

// TestWindowMidLogCRCFailureIsError: a corrupt record wholly below the stable
// end is damage, not a torn tail; the window reports it.
func TestWindowMidLogCRCFailureIsError(t *testing.T) {
	l := New(1 << 20)
	var lsns []uint64
	for i := 0; i < 4; i++ {
		lsn, _ := l.Append(upd(1, page.ID(i+1), 64))
		lsns = append(lsns, lsn)
	}
	l.Force()
	l.ring[(lsns[1]+logrec.HeaderSize+3)%l.capacity] ^= 0x01
	if err := l.Scan(l.Head(), func(*logrec.Record) bool { return true }); !errors.Is(err, logrec.ErrCorrupt) {
		t.Fatalf("scan: %v, want ErrCorrupt", err)
	}
	if _, err := l.Window(l.Head()); !errors.Is(err, logrec.ErrCorrupt) {
		t.Fatalf("window: %v, want ErrCorrupt", err)
	}
	// A window starting past the damage does not read it.
	w, err := l.Window(lsns[2])
	if err != nil || len(w.Recs) != 2 {
		t.Fatalf("window past the damage: %d records, %v", len(w.Recs), err)
	}
}

// TestWindowBelowHeadIsTruncated: the window cannot start in reclaimed log.
func TestWindowBelowHeadIsTruncated(t *testing.T) {
	l := New(1 << 20)
	l.Append(upd(1, 1, 64))
	l.Force()
	if err := l.Truncate(l.StableEnd()); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Window(FirstLSN); !errors.Is(err, ErrTruncated) {
		t.Fatalf("window below head: %v, want ErrTruncated", err)
	}
	w, err := l.Window(l.Head())
	if err != nil || len(w.Recs) != 0 || w.End != w.Start {
		t.Fatalf("window over an empty log: %+v, %v", w, err)
	}
}

// TestWindowSurvivesLaterAppends: the window's records own their bytes, so
// appends that overwrite the ring positions they were decoded from — after
// the range is reclaimed — leave them intact.
func TestWindowSurvivesLaterAppends(t *testing.T) {
	const capacity = 4 * page.Size
	l := New(capacity)
	for i := 0; i < 10; i++ {
		l.Append(upd(logrec.TID(i+1), page.ID(i+1), 200))
	}
	l.Force()
	want := scanClones(t, l, l.Head())
	w, err := l.Window(l.Head())
	if err != nil {
		t.Fatal(err)
	}
	// Reclaim everything and append enough to overwrite the whole ring.
	for l.End() < w.End+2*capacity {
		if err := l.Truncate(l.StableEnd()); err != nil {
			t.Fatal(err)
		}
		l.Append(logrec.NewUpdate(99, 99, 0, make([]byte, 500), make([]byte, 500)))
		l.Force()
	}
	sameRecords(t, w, want)
}
