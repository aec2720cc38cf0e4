package harness

// Crash-point sweep: systematic crash-consistency testing for all five
// recovery schemes.
//
// A sweep runs a deterministic OO7 update workload against an in-process
// server whose two stable-storage channels — the data volume and the WAL's
// durability boundary — feed one shared counting fuse
// (faultinject.Fuse). The counting pass (fuse limit < 0) runs the workload
// to completion and numbers every stable-storage event: each data-page
// write and each advance of the log's stable end is one crash point. A
// replay pass then re-runs the identical workload with the fuse set to a
// chosen point P: events 1..P take effect, and every later write or flush
// is silently swallowed, freezing stable storage in exactly the state a
// server crash immediately after event P would leave — including a stable
// end mid-record when event P was a page-grained ForceFull (the torn-tail
// case). The server is then crashed, a fresh server is built over the
// surviving store and log, Restart runs, and the recovery invariants are
// checked:
//
//   - every transaction whose commit call finished before P is durable;
//   - every transaction not yet committing at P is rolled back;
//   - the one transaction whose commit straddles P is atomic — wholly
//     applied or wholly rolled back, never a mixture;
//   - a second crash+restart with no intervening work changes no data page
//     (restart, including pageLSN-conditional redo, is idempotent).
//
// Everything is deterministic: the same (system, seed) pair enumerates the
// same crash points and produces the same verdicts, so a reported failure
// reproduces from its printed system, seed and point alone via
// ReplayCrashPoint.

import (
	"fmt"
	"sort"

	"repro/internal/client"
	"repro/internal/disk"
	"repro/internal/faultinject"
	"repro/internal/oo7"
	"repro/internal/page"
	"repro/internal/server"
	"repro/internal/wal"
	"repro/internal/wire"
)

// SweepSystem is one recovery scheme under sweep.
type SweepSystem struct {
	Name   string
	Scheme client.Scheme
	Mode   server.Mode
}

// SweepSystems returns the five schemes of the paper, each of which the
// sweep must hold to the same recovery invariants.
func SweepSystems() []SweepSystem {
	return []SweepSystem{
		{Name: "PD-ESM", Scheme: client.PD, Mode: server.ModeESM},
		{Name: "SD-ESM", Scheme: client.SD, Mode: server.ModeESM},
		{Name: "SL-ESM", Scheme: client.SL, Mode: server.ModeESM},
		{Name: "PD-REDO", Scheme: client.PD, Mode: server.ModeREDO},
		{Name: "WPL", Scheme: client.WPL, Mode: server.ModeWPL},
	}
}

// Sweep sizing: small pools force evictions mid-transaction, a low
// checkpoint interval exercises checkpoint-adjacent crash points, and the
// tiny OO7 configuration keeps one replay cheap enough that hundreds run in
// a test.
const (
	sweepStamps      = 104 // stamp transactions after the build
	sweepServerPool  = 96
	sweepClientPool  = 48
	sweepLogCapacity = 32 << 20
	sweepCkptEvery   = 3
)

// sweepVariant tunes the server's checkpoint/cleaner configuration for one
// sweep family. The zero value is the classic sharp-checkpoint sweep; the
// fuzzy variant (fuzzySweepVariant) turns on fuzzy checkpoints, drives the
// page cleaner synchronously between stamp transactions (the background
// goroutine stays off — CleanerEvery is never set — so every stable-storage
// event keeps its deterministic number), and sets a dirty-page target so
// commit backpressure paths run too.
type sweepVariant struct {
	name        string // "" = sharp; appears in failure repro recipes
	fuzzy       bool   // server.Config.FuzzyCheckpoints
	cleanEvery  int    // run a synchronous cleaner batch after every N stamps (0 = never)
	cleanBatch  int    // pages per synchronous cleaner batch
	dirtyTarget int    // server.Config.DirtyPageTarget (backpressure at 2x)
}

// fuzzySweepVariant is the fuzzy-checkpoint + page-cleaner sweep: cleaner
// data writes and the checkpoint-record→superblock window become numbered
// crash points alongside the classic ones.
func fuzzySweepVariant() sweepVariant {
	return sweepVariant{name: "fuzzy", fuzzy: true, cleanEvery: 2, cleanBatch: 8, dirtyTarget: 16}
}

// sweepServerConfig builds the server configuration shared by the workload
// and both recovery servers of a replay; all three must agree or the replay
// would recover under a different regime than the crash was taken under.
func sweepServerConfig(mode server.Mode, store disk.Store, log *wal.Log, v sweepVariant) server.Config {
	return server.Config{
		Mode:             mode,
		Store:            store,
		Log:              log,
		LogCapacity:      sweepLogCapacity,
		PoolPages:        sweepServerPool,
		CheckpointEvery:  sweepCkptEvery,
		FuzzyCheckpoints: v.fuzzy,
		DirtyPageTarget:  v.dirtyTarget,
		CleanerBatch:     v.cleanBatch,
	}
}

// sweepDBConfig is the miniature OO7 database used by the sweep.
func sweepDBConfig() oo7.Config {
	return oo7.Config{
		NumAtomicPerComp: 8,
		NumConnPerAtomic: 2,
		DocumentSize:     256,
		ManualSize:       4 << 10,
		NumCompPerModule: 4,
		NumAssmPerAssm:   2,
		NumAssmLevels:    2,
		NumCompPerAssm:   2,
		NumModules:       1,
	}
}

// stampTxn journals one stamp transaction: the fuse counts bracketing its
// commit call and what it wrote. Transactions run serially, so the set of
// transactions with post ≤ P is always a prefix of the journal.
type stampTxn struct {
	pre, post int64 // fuse counts immediately before and after tx.Commit
	parts     [2]page.OID
	val       uint32
}

// sweepRun is the state of one workload execution (counting or replay).
type sweepRun struct {
	sys   SweepSystem
	fuse  *faultinject.Fuse
	store *faultinject.Store
	log   *wal.Log
	srv   *server.Server
	parts []page.OID
	init  []uint32   // x value of each part before any stamp
	txns  []stampTxn // stamp journal
	// buildEnd is the fuse count when the build (and part collection)
	// finished; crash points at or below it fall inside the build, where
	// only restart success and idempotence are checked.
	buildEnd int64
	// lateErr is a workload error after the fuse blew (expected and benign:
	// the frozen log eventually reports itself full, etc.).
	lateErr error
}

// runWorkload executes the sweep workload with the fuse limited to `limit`
// stable-storage events (< 0 = count only). Workload errors after the fuse
// blows are recorded and benign; before it they are real failures.
func runWorkload(sys SweepSystem, seed int64, limit int64, v sweepVariant) (*sweepRun, error) {
	fuse := faultinject.NewFuse(limit)
	store := faultinject.NewSweepStore(disk.NewMemStore(), fuse)
	log := wal.New(sweepLogCapacity)
	log.SetFlushLimiter(func(proposed uint64) uint64 {
		if _, ok := fuse.Event(); !ok {
			return 0 // frozen: clamped back to the current stable end
		}
		return proposed
	})
	// Head reclamation persists a head pointer: one stable event per advance.
	log.SetTruncateGate(func() bool {
		_, ok := fuse.Event()
		return ok
	})
	srv := server.New(sweepServerConfig(sys.Mode, store, log, v))
	cli := client.New(client.Config{
		Scheme:         sys.Scheme,
		PoolPages:      sweepClientPool,
		ShipDirtyPages: sys.Mode != server.ModeREDO,
	}, wire.NewDirect(srv, nil, nil))
	// Server-side maintenance session; the fuzzy variant drives the page
	// cleaner through it between stamp transactions.
	srvSn := srv.NewSession(nil, nil)
	run := &sweepRun{sys: sys, fuse: fuse, store: store, log: log, srv: srv}

	fail := func(stage string, err error) (*sweepRun, error) {
		if fuse.Blown() {
			run.lateErr = fmt.Errorf("%s: %w", stage, err)
			return run, nil
		}
		return nil, fmt.Errorf("sweep workload %s (system=%s seed=%d): %w", stage, sys.Name, seed, err)
	}

	db, err := oo7.Build(cli, sweepDBConfig(), seed)
	if err != nil {
		return fail("build", err)
	}
	run.parts, err = oo7.CollectAtomicParts(cli, &db.Modules[0])
	if err != nil {
		return fail("collect", err)
	}
	// Baseline x values (a read-only transaction: no stable events).
	tx, err := cli.Begin()
	if err != nil {
		return fail("baseline begin", err)
	}
	for _, p := range run.parts {
		x, _, err := oo7.ReadXY(tx, p)
		if err != nil {
			tx.Abort()
			return fail("baseline read", err)
		}
		run.init = append(run.init, x)
	}
	tx.Abort()
	run.buildEnd = fuse.Count()

	for i := 0; i < sweepStamps; i++ {
		st := stampTxn{
			val:   uint32(10001 + i),
			parts: [2]page.OID{run.parts[(2*i)%len(run.parts)], run.parts[(2*i+1)%len(run.parts)]},
		}
		tx, err := cli.Begin()
		if err != nil {
			return fail("stamp begin", err)
		}
		for _, p := range st.parts {
			if err := oo7.StampXY(tx, p, st.val); err != nil {
				tx.Abort()
				return fail("stamp write", err)
			}
		}
		st.pre = fuse.Count()
		err = tx.Commit()
		st.post = fuse.Count()
		if err != nil {
			return fail("stamp commit", err)
		}
		run.txns = append(run.txns, st)
		// Fuzzy variant: drive the page cleaner synchronously between stamp
		// transactions. Its data writes and WAL forces feed the same fuse, so
		// crash points land inside cleaner page writes; running it outside
		// the pre/post bracket keeps the commit-prefix invariant intact.
		if v.cleanEvery > 0 && (i+1)%v.cleanEvery == 0 {
			if _, err := srvSn.Clean(v.cleanBatch); err != nil {
				return fail("clean", err)
			}
		}
	}
	return run, nil
}

// modelAfter returns the expected x value of every part once the first k
// stamp transactions (and nothing else) have been applied.
func (r *sweepRun) modelAfter(k int) []uint32 {
	vals := append([]uint32(nil), r.init...)
	idx := make(map[page.OID]int, len(r.parts))
	for i, p := range r.parts {
		idx[p] = i
	}
	for i := 0; i < k; i++ {
		for _, p := range r.txns[i].parts {
			vals[idx[p]] = r.txns[i].val
		}
	}
	return vals
}

// SweepFailure is one violated recovery invariant, with everything needed
// to reproduce it.
type SweepFailure struct {
	System  string
	Seed    int64
	Point   int64
	Detail  string
	Variant string // "" = sharp, "fuzzy" = fuzzy-ckpt, "repl" = failover, "twopc"/"twopc-stall" = sharded 2PC sweeps
}

// Error formats the failure with its reproduction recipe, naming the replay
// entry point for the variant the failure came from.
func (f *SweepFailure) Error() string {
	fn := "harness.ReplayCrashPoint"
	switch f.Variant {
	case "fuzzy":
		fn = "harness.ReplayFuzzyCrashPoint"
	case "repl":
		fn = "harness.ReplayReplCut"
	case "twopc":
		fn = "harness.ReplayTwoPCCrashPoint"
	case "twopc-stall":
		fn = "harness.ReplayTwoPCStallPoint"
	}
	return fmt.Sprintf("crash-point failure: system=%s seed=%d point=%d: %s "+
		"(reproduce: %s(%q, %d, %d))",
		f.System, f.Seed, f.Point, f.Detail, fn, f.System, f.Seed, f.Point)
}

// SweepReport summarizes a sweep over one system.
type SweepReport struct {
	System   string
	Seed     int64
	Points   int64   // crash points enumerated by the counting pass
	Replayed []int64 // points actually replayed (budget-limited)
	Failures []*SweepFailure
}

// CountCrashPoints runs the counting pass alone and returns the number of
// crash points plus the run (for determinism checks).
func CountCrashPoints(sys SweepSystem, seed int64) (*sweepRun, int64, error) {
	return countCrashPoints(sys, seed, sweepVariant{})
}

func countCrashPoints(sys SweepSystem, seed int64, v sweepVariant) (*sweepRun, int64, error) {
	run, err := runWorkload(sys, seed, -1, v)
	if err != nil {
		return nil, 0, err
	}
	if run.lateErr != nil {
		return nil, 0, fmt.Errorf("counting pass errored: %w", run.lateErr)
	}
	return run, run.fuse.Count(), nil
}

// Sweep enumerates every crash point for the system and replays up to
// `budget` of them (≤ 0 = all), evenly spaced so the sample always covers
// the first and last points. Failures accumulate; they do not stop the
// sweep.
func Sweep(sys SweepSystem, seed int64, budget int) (*SweepReport, error) {
	return sweepVariantRun(sys, seed, budget, sweepVariant{})
}

func sweepVariantRun(sys SweepSystem, seed int64, budget int, v sweepVariant) (*SweepReport, error) {
	_, n, err := countCrashPoints(sys, seed, v)
	if err != nil {
		return nil, err
	}
	rep := &SweepReport{System: sys.Name, Seed: seed, Points: n}
	for _, p := range samplePoints(n, budget) {
		rep.Replayed = append(rep.Replayed, p)
		f, err := replayPoint(sys, seed, p, v)
		if err != nil {
			return nil, err
		}
		if f != nil {
			rep.Failures = append(rep.Failures, f)
		}
	}
	return rep, nil
}

// ReplayCrashPoint re-runs a single crash point — the reproduction entry
// point printed with every failure. system must be a SweepSystems name.
func ReplayCrashPoint(system string, seed int64, point int64) (*SweepFailure, error) {
	return replayNamed(system, seed, point, sweepVariant{})
}

func replayNamed(system string, seed int64, point int64, v sweepVariant) (*SweepFailure, error) {
	for _, sys := range SweepSystems() {
		if sys.Name == system {
			return replayPoint(sys, seed, point, v)
		}
	}
	return nil, fmt.Errorf("harness: unknown sweep system %q", system)
}

// samplePoints picks up to budget points from 1..n, evenly spaced,
// including 1 and n. A budget of 1 is raised to 2: one point cannot span
// both ends. A budget ≤ 0 picks every point.
func samplePoints(n int64, budget int) []int64 {
	if n <= 0 {
		return nil
	}
	if budget == 1 {
		budget = 2
	}
	if budget <= 0 || int64(budget) >= n {
		pts := make([]int64, 0, n)
		for p := int64(1); p <= n; p++ {
			pts = append(pts, p)
		}
		return pts
	}
	pts := make([]int64, 0, budget)
	var last int64
	for i := 0; i < budget; i++ {
		p := 1 + (n-1)*int64(i)/int64(budget-1)
		if p != last {
			pts = append(pts, p)
			last = p
		}
	}
	return pts
}

// replayPoint runs the workload to crash point P, crashes, recovers on a
// fresh server over the surviving store and log, and checks the recovery
// invariants. A nil failure means the point passed.
func replayPoint(sys SweepSystem, seed int64, point int64, v sweepVariant) (*SweepFailure, error) {
	run, err := runWorkload(sys, seed, point, v)
	if err != nil {
		return nil, err
	}
	bad := func(format string, args ...interface{}) *SweepFailure {
		return &SweepFailure{System: sys.Name, Seed: seed, Point: point,
			Detail: fmt.Sprintf(format, args...), Variant: v.name}
	}

	// Crash: volatile state is lost, stable storage thaws for recovery.
	run.srv.Crash() // trims the log's (possibly torn) volatile tail
	run.log.SetFlushLimiter(nil)
	run.log.SetTruncateGate(nil)
	run.fuse.Disarm()
	run.store.CrashDropPending()

	// Recover on a fresh server adopting the surviving store and log.
	srv2 := server.New(sweepServerConfig(sys.Mode, run.store, run.log, v))
	sn2 := srv2.NewSession(nil, nil)
	if err := sn2.Restart(); err != nil {
		return bad("restart failed: %v", err), nil
	}

	// Data invariants (only meaningful once the build itself is durable).
	if point > run.buildEnd {
		if f := verifyStamps(sys, run, srv2, point, bad); f != nil {
			return f, nil
		}
	}

	// Idempotence: recovering the recovered system must not change any data
	// page (exercises conditional redo and WPL reinstall on a clean state).
	before, err := dumpStore(run.store)
	if err != nil {
		return nil, err
	}
	srv2.Crash()
	srv3 := server.New(sweepServerConfig(sys.Mode, run.store, run.log, v))
	sn3 := srv3.NewSession(nil, nil)
	if err := sn3.Restart(); err != nil {
		return bad("second restart failed: %v", err), nil
	}
	after, err := dumpStore(run.store)
	if err != nil {
		return nil, err
	}
	if diff := diffDumps(before, after); diff != "" {
		return bad("restart not idempotent: %s", diff), nil
	}
	return nil, nil
}

// verifyStamps checks the committed/rolled-back/atomic-boundary invariants
// against the recovered server.
func verifyStamps(sys SweepSystem, run *sweepRun, srv2 *server.Server, point int64,
	bad func(string, ...interface{}) *SweepFailure) *SweepFailure {
	// Committed transactions form a prefix of the journal (serial client).
	kc := 0
	for kc < len(run.txns) && run.txns[kc].post <= point {
		kc++
	}
	for i := kc; i < len(run.txns); i++ {
		if run.txns[i].post <= point {
			return bad("journal not prefix-closed: txn %d committed after txn %d did not", i, kc)
		}
	}
	boundary := kc < len(run.txns) && run.txns[kc].pre <= point

	cli := client.New(client.Config{
		Scheme:         sys.Scheme,
		PoolPages:      sweepClientPool,
		ShipDirtyPages: sys.Mode != server.ModeREDO,
	}, wire.NewDirect(srv2, nil, nil))
	tx, err := cli.Begin()
	if err != nil {
		return bad("verification begin failed: %v", err)
	}
	defer tx.Abort()
	got := make([]uint32, len(run.parts))
	for i, p := range run.parts {
		x, y, err := oo7.ReadXY(tx, p)
		if err != nil {
			return bad("verification read of part %v failed: %v", p, err)
		}
		// Stamps write x=y=10001+i; the build writes independent randoms
		// below 10000. A mismatch involving a stamp value is a torn object
		// update; two small unequal values are just pristine build state.
		if x != y && (x > 10000 || y > 10000) {
			return bad("part %v has x=%d y=%d (stamps always write x=y: torn object update)", p, x, y)
		}
		got[i] = x
	}

	mismatch := func(want []uint32) (int, bool) {
		for i := range want {
			if got[i] != want[i] {
				return i, true
			}
		}
		return 0, false
	}
	committed := run.modelAfter(kc)
	i, diffA := mismatch(committed)
	if !diffA {
		return nil // exactly the committed prefix: rolled back correctly
	}
	if !boundary {
		return bad("part %v = %d, want %d (committed prefix of %d txns; no transaction was mid-commit)",
			run.parts[i], got[i], committed[i], kc)
	}
	withBoundary := run.modelAfter(kc + 1)
	if j, diffB := mismatch(withBoundary); diffB {
		return bad("state matches neither %d committed txns (part %v: got %d want %d) nor %d "+
			"(part %v: got %d want %d): boundary txn applied non-atomically",
			kc, run.parts[i], got[i], committed[i],
			kc+1, run.parts[j], got[j], withBoundary[j])
	}
	return nil // boundary transaction wholly durable: also legal
}

// dumpStore snapshots every data page (the superblock, page 0, is excluded:
// restart legitimately rewrites its checkpoint pointer and counters). It
// accepts any disk.Store — the crash sweeps pass the fault-injecting
// wrapper, the media sweep passes restored volumes.
func dumpStore(st disk.Store) (map[page.ID][]byte, error) {
	out := make(map[page.ID][]byte)
	err := st.ForEachPage(func(id page.ID, data []byte) error {
		if id == 0 {
			return nil
		}
		out[id] = append([]byte(nil), data...)
		return nil
	})
	return out, err
}

// diffDumps describes the first difference between two store dumps, or ""
// if they are identical. Pages are compared in ascending id order so the
// reported "first" difference is the same on every run (map iteration order
// is randomized).
func diffDumps(a, b map[page.ID][]byte) string {
	ids := make([]page.ID, 0, len(a))
	for id := range a {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		pa := a[id]
		pb, ok := b[id]
		if !ok {
			return fmt.Sprintf("page %v vanished", id)
		}
		for i := range pa {
			if pa[i] != pb[i] {
				return fmt.Sprintf("page %v byte %d: %d != %d", id, i, pa[i], pb[i])
			}
		}
	}
	extra := make([]page.ID, 0, len(b))
	for id := range b {
		if _, ok := a[id]; !ok {
			extra = append(extra, id)
		}
	}
	if len(extra) > 0 {
		sort.Slice(extra, func(i, j int) bool { return extra[i] < extra[j] })
		return fmt.Sprintf("page %v appeared", extra[0])
	}
	return ""
}
