package server

import (
	"bytes"
	"fmt"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/logrec"
	"repro/internal/page"
)

// TestRestartBeforeFirstCheckpointOnFileStore: on a volume file, pages above
// 0 written before the first checkpoint — WPL installs at commit, ESM steals
// from a small pool — leave page 0 a zero-filled hole. Restart must read that
// as "no superblock yet" and recover every commit from the log.
func TestRestartBeforeFirstCheckpointOnFileStore(t *testing.T) {
	for _, mode := range []Mode{ModeWPL, ModeESM} {
		t.Run(mode.String(), func(t *testing.T) {
			store, err := disk.OpenFileStore(filepath.Join(t.TempDir(), "vol"))
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()
			s := New(Config{
				Mode:            mode,
				Store:           store,
				PoolPages:       16, // ESM: more pages than frames, so pages are stolen
				LogCapacity:     16 << 20,
				LockTimeout:     time.Second,
				CheckpointEvery: 1 << 30,
			})
			sn := s.NewSession(nil, nil)
			const n = 40
			var pids [n]page.ID
			var slots [n]int
			for i := range pids {
				pids[i], slots[i] = createPage(t, sn, []byte(fmt.Sprintf("object %02d", i)))
			}
			if s.Stats().Checkpoints != 0 {
				t.Fatal("test construction: a checkpoint ran before the crash")
			}
			if atomic.LoadInt64(&s.stats.DataWrites) == 0 {
				t.Fatal("test construction: no page reached the volume before the crash")
			}
			s.Crash()
			if err := sn.Restart(); err != nil {
				t.Fatalf("restart before the first checkpoint: %v", err)
			}
			for i := range pids {
				want := fmt.Sprintf("object %02d", i)
				if got := readObject(t, sn, pids[i], slots[i], len(want)); string(got) != want {
					t.Errorf("page %v: got %q want %q", pids[i], got, want)
				}
			}
		})
	}
}

// restartOutcome is what a restart must reproduce exactly whatever the
// number of redo workers.
type restartOutcome struct {
	volume  map[page.ID][]byte
	logEnd  uint64
	clrs    []uint64 // CLR LSNs, in log order
	applied int64    // records redo applied, summed over workers
}

// TestRestartWindowMatchesAcrossWorkers crashes the same fuzzy-checkpointed
// workload under 1, 2 and 4 redo workers and requires identical volumes, log
// ends and CLR LSNs. A loser updates a page, which is then flushed clean,
// before the checkpoint: the checkpoint's DPT starts above the loser's first
// record but below the analysis scan start, so the restart window begins
// below scanFrom and undo must read that first record from the log below the
// window.
func TestRestartWindowMatchesAcrossWorkers(t *testing.T) {
	for _, mode := range []Mode{ModeESM, ModeREDO} {
		t.Run(mode.String(), func(t *testing.T) {
			var ref restartOutcome
			for _, workers := range []int{1, 2, 4} {
				got := crashFuzzyWithLoser(t, mode, workers)
				if workers == 1 {
					ref = got
					if ref.applied == 0 {
						t.Fatal("redo applied no records: workload did not exercise redo")
					}
					if len(ref.clrs) != 3 {
						t.Fatalf("undo wrote %d CLRs, want 3 (one per loser update)", len(ref.clrs))
					}
					continue
				}
				if got.logEnd != ref.logEnd {
					t.Errorf("%d workers: log ends at %d, 1 worker at %d", workers, got.logEnd, ref.logEnd)
				}
				if !reflect.DeepEqual(got.clrs, ref.clrs) {
					t.Errorf("%d workers: CLR LSNs %v, 1 worker %v", workers, got.clrs, ref.clrs)
				}
				if got.applied != ref.applied {
					t.Errorf("%d workers: redo applied %d records, 1 worker %d", workers, got.applied, ref.applied)
				}
				if len(got.volume) != len(ref.volume) {
					t.Errorf("%d workers: %d stored pages, 1 worker %d", workers, len(got.volume), len(ref.volume))
				}
				for pid, want := range ref.volume {
					if !bytes.Equal(got.volume[pid], want) {
						t.Errorf("%d workers: page %v differs from the 1-worker volume", workers, pid)
					}
				}
			}
		})
	}
}

func crashFuzzyWithLoser(t *testing.T, mode Mode, workers int) restartOutcome {
	t.Helper()
	store := disk.NewMemStore()
	s := New(Config{
		Mode:             mode,
		Store:            store,
		PoolPages:        16, // evictions put pages in the DPT's past
		LogCapacity:      16 << 20,
		LockTimeout:      time.Second,
		CheckpointEvery:  1 << 30,
		FuzzyCheckpoints: true,
		RedoWorkers:      workers,
	})
	sn := s.NewSession(nil, nil)
	const pages, rounds = 12, 3
	var pids [pages]page.ID
	var slots [pages]int
	for i := range pids {
		pids[i], slots[i] = createPage(t, sn, []byte(fmt.Sprintf("page %d......", i)))
	}
	// The loser owns pages 0 and 1; committed rounds update the rest, pages
	// below 7 only before the checkpoint, so their redo lies wholly below the
	// analysis start.
	want := make(map[int]string)
	update := func(lo int) {
		for r := 0; r < rounds; r++ {
			for i := lo; i < pages; i++ {
				want[i] = fmt.Sprintf("p%d round %02d", i, r)
				updateObject(t, sn, pids[i], slots[i], []byte(want[i]), true)
			}
		}
	}
	loser := sn.Begin()
	writeObject(t, sn, loser, pids[0], slots[0], []byte("loser first."))
	if err := sn.FlushAll(); err != nil {
		t.Fatal(err)
	}
	update(2)
	writeObject(t, sn, loser, pids[1], slots[1], []byte("loser second"))
	if err := sn.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	update(7)
	writeObject(t, sn, loser, pids[0], slots[0], []byte("loser third."))
	want[pages-1] = "last commit"
	updateObject(t, sn, pids[pages-1], slots[pages-1], []byte(want[pages-1]), true) // forces the loser's tail
	s.Crash()

	// Check the construction: the checkpoint's DPT reaches below its
	// analysis start, and the loser's first record lies below both.
	sb, err := s.readSuperblock()
	if err != nil {
		t.Fatal(err)
	}
	rec, err := s.log.ReadAt(sb.checkpointLSN)
	if err != nil {
		t.Fatal(err)
	}
	ckpt, err := decodeCkpt(rec.After)
	if err != nil {
		t.Fatal(err)
	}
	minRec := logrec.NoLSN
	for _, d := range ckpt.dpt {
		minRec = min(minRec, d.rec)
	}
	var loserFirst uint64
	for _, ct := range ckpt.txns {
		if ct.tid == loser {
			loserFirst = ct.firstLSN
		}
	}
	if !(loserFirst != 0 && loserFirst < minRec && minRec < ckpt.beginLSN) {
		t.Fatalf("test construction: loser first LSN %d, DPT min recLSN %d, analysis start %d; want ascending",
			loserFirst, minRec, ckpt.beginLSN)
	}

	if err := sn.Restart(); err != nil {
		t.Fatal(err)
	}
	if x := s.ExtendedStats(); x.RedoWorkers != workers {
		t.Fatalf("restart used %d redo workers, want %d", x.RedoWorkers, workers)
	}
	want[0], want[1] = "page 0......", "page 1......"
	for i := range pids {
		if got := readObject(t, sn, pids[i], slots[i], len(want[i])); string(got) != want[i] {
			t.Fatalf("page %d after restart: got %q want %q", i, got, want[i])
		}
	}
	out := restartOutcome{logEnd: s.log.End(), volume: make(map[page.ID][]byte)}
	for _, n := range s.ExtendedStats().RedoApplied {
		out.applied += n
	}
	if err := s.log.Scan(s.log.Head(), func(r *logrec.Record) bool {
		if r.Type == logrec.TypeCLR {
			out.clrs = append(out.clrs, r.LSN)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	// A fuzzy restart leaves redone pages in the pool; write them home so the
	// volumes compare.
	if err := sn.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := store.ForEachPage(func(pid page.ID, data []byte) error {
		out.volume[pid] = append([]byte(nil), data...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// BenchmarkRestart times Restart alone for PD-ESM after n committed
// single-object transactions and one in-flight loser, with no checkpoint
// since start-up: analysis, redo and undo over the whole log.
func BenchmarkRestart(b *testing.B) {
	const n, pages = 2000, 64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := New(Config{
			Mode:            ModeESM,
			PoolPages:       256,
			LogCapacity:     64 << 20,
			LockTimeout:     time.Second,
			CheckpointEvery: 1 << 30,
		})
		sn := s.NewSession(nil, nil)
		var pids [pages]page.ID
		var slots [pages]int
		for p := range pids {
			pids[p], slots[p] = createPage(b, sn, []byte("object 0000"))
		}
		for c := 0; c < n; c++ {
			p := c % (pages - 1)
			updateObject(b, sn, pids[p], slots[p], []byte(fmt.Sprintf("object %04d", c)), true)
		}
		updateObject(b, sn, pids[pages-1], slots[pages-1], []byte("loser......"), false)
		s.Crash()
		b.StartTimer()
		if err := sn.Restart(); err != nil {
			b.Fatal(err)
		}
	}
}
