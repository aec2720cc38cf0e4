// Command benchcommit measures multi-client commit throughput against one
// in-process server with concurrent sessions and group commit.
//
// Each client runs small update transactions against its own page (the
// paper's private-module workload, which keeps lock conflicts out of the
// measurement), so the contended resource is exactly what group commit
// targets: the stable log device. The log's modeled write latency
// (-writedelay) is paid per stable write, so a group write covering k
// commits pays it once where k inline forces would pay it k times.
//
//	benchcommit -out BENCH_commit.json
//
// The output JSON records, per scheme x client count: wall-clock commit
// throughput, stable log forces vs commits, and the group-commit batching
// histogram, plus a per-scheme summary of the 8-client cell.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	quickstore "repro"
	"repro/internal/client"
	"repro/internal/disk"
	"repro/internal/server"
	"repro/internal/wal"
	"repro/internal/wire"
)

// Run is one benchmark cell: a scheme and a client count.
type Run struct {
	Scheme     string  `json:"scheme"`
	Clients    int     `json:"clients"`
	Txns       int64   `json:"txns"`
	Seconds    float64 `json:"seconds"`
	TxnsPerSec float64 `json:"txns_per_sec"`

	// Stable-log behaviour over the timed window.
	Commits        int64   `json:"commits"`
	LogForces      int64   `json:"log_forces"`
	FlushesAvoided int64   `json:"flushes_avoided"`
	MeanBatch      float64 `json:"mean_batch,omitempty"`
	BatchSizes     []int64 `json:"batch_sizes,omitempty"`

	LatchContention int64 `json:"latch_contention"`
	LockWaits       int64 `json:"lock_waits"`
}

// Summary distills the acceptance criterion per scheme.
type Summary struct {
	Scheme              string  `json:"scheme"`
	GroupTPS8           float64 `json:"group_tps_8_clients"`
	GroupForces8        int64   `json:"group_log_forces_8_clients"`
	GroupCommits8       int64   `json:"group_commits_8_clients"`
	ForcesBelowCommits8 bool    `json:"forces_below_commits_8_clients"`
}

// Output is the whole BENCH_commit.json document.
type Output struct {
	Config struct {
		TxnsPerClient int    `json:"txns_per_client"`
		WriteDelay    string `json:"log_write_delay"`
		ObjectBytes   int    `json:"object_bytes"`
		Clients       []int  `json:"client_counts"`
		Checksum      bool   `json:"checksum_envelope"`
		ChecksumNote  string `json:"checksum_note,omitempty"`
	} `json:"config"`
	Runs    []Run     `json:"runs"`
	Summary []Summary `json:"summary"`
}

var schemes = []quickstore.Scheme{
	quickstore.PDESM, quickstore.SDESM, quickstore.SLESM,
	quickstore.PDREDO, quickstore.WPL,
}

func main() {
	var (
		out        = flag.String("out", "BENCH_commit.json", "output file (- for stdout)")
		nPerClient = flag.Int("n", 150, "update transactions per client")
		writeDelay = flag.Duration("writedelay", 200*time.Microsecond, "modeled stable-log write latency per force")
		clientsArg = flag.String("clients", "1,2,4,8", "comma-separated client counts")
		cksum      = flag.Bool("checksum", false, "wrap the volume in the per-page checksum envelope (measures integrity overhead)")
		ckpt       = flag.Bool("ckpt", false, "run the checkpoint benchmark instead (commit p99 during a checkpoint, sharp vs fuzzy; writes BENCH_checkpoint.json)")
		replB      = flag.Bool("repl", false, "run the replication benchmark instead (commit p50/p99 with a hot standby, async vs semi-sync acks; writes BENCH_repl.json)")
		shardsB    = flag.Int("shards", 0, "run the sharding benchmark instead: cluster sizes 1..N, disjoint vs 10%-cross-shard mixes (writes BENCH_shard.json)")
	)
	flag.Parse()
	checksummed = *cksum

	if *ckpt {
		dest := *out
		if dest == "BENCH_commit.json" {
			dest = "BENCH_checkpoint.json"
		}
		runCkptBench(dest, *writeDelay)
		return
	}
	if *replB {
		dest := *out
		if dest == "BENCH_commit.json" {
			dest = "BENCH_repl.json"
		}
		runReplBench(dest, *writeDelay)
		return
	}
	if *shardsB > 0 {
		dest := *out
		if dest == "BENCH_commit.json" {
			dest = "BENCH_shard.json"
		}
		runShardBench(dest, *shardsB, *writeDelay)
		return
	}

	var clientCounts []int
	for _, s := range strings.Split(*clientsArg, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 1 {
			log.Fatalf("benchcommit: bad -clients entry %q", s)
		}
		clientCounts = append(clientCounts, n)
	}

	var doc Output
	doc.Config.TxnsPerClient = *nPerClient
	doc.Config.WriteDelay = writeDelay.String()
	doc.Config.ObjectBytes = objectBytes
	doc.Config.Clients = clientCounts
	doc.Config.Checksum = checksummed
	if checksummed {
		doc.Config.ChecksumNote = "volume behind disk.Checksummed: every data write stamps and every data read verifies a per-page CRC-32C envelope"
	} else {
		doc.Config.ChecksumNote = "raw volume; diff against BENCH_commit_checksum.json (same grid, -checksum) for the integrity tax of the CRC envelope"
	}

	for _, sc := range schemes {
		for _, nc := range clientCounts {
			r := runOne(sc, nc, *nPerClient, *writeDelay)
			doc.Runs = append(doc.Runs, r)
			fmt.Fprintf(os.Stderr, "%-7s %d clients %8.0f txn/s  forces=%d/%d commits\n",
				r.Scheme, r.Clients, r.TxnsPerSec, r.LogForces, r.Commits)
			if nc == 8 {
				doc.Summary = append(doc.Summary, Summary{
					Scheme:              sc.String(),
					GroupTPS8:           r.TxnsPerSec,
					GroupForces8:        r.LogForces,
					GroupCommits8:       r.Commits,
					ForcesBelowCommits8: r.LogForces < r.Commits,
				})
			}
		}
	}

	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		log.Fatalf("benchcommit: %v", err)
	}
	enc = append(enc, '\n')
	if *out == "-" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		log.Fatalf("benchcommit: %v", err)
	}
	for _, s := range doc.Summary {
		fmt.Printf("%-7s 8 clients %.0f txn/s, forces %d < commits %d: %v\n",
			s.Scheme, s.GroupTPS8, s.GroupForces8, s.GroupCommits8, s.ForcesBelowCommits8)
	}
}

const objectBytes = 64

// checksummed selects the -checksum arm: every cell's volume sits behind
// disk.Checksummed, so data writes pay a CRC stamp and data reads a verify.
var checksummed bool

// benchStore builds one cell's volume per the -checksum flag.
func benchStore() disk.Store {
	if checksummed {
		return disk.NewChecksummed(disk.NewMemStore())
	}
	return disk.NewMemStore()
}

// runOne executes one benchmark cell on a fresh in-memory server.
func runOne(sc quickstore.Scheme, nclients, nPerClient int, writeDelay time.Duration) Run {
	mode, err := sc.ServerMode()
	if err != nil {
		log.Fatalf("benchcommit: %v", err)
	}
	cfg := server.Config{
		Mode:            mode,
		Store:           benchStore(),
		LogCapacity:     wal.DefaultCapacity,
		CheckpointEvery: 1 << 30, // keep checkpoints out of the timed window
		WPLInstallAsync: true,
	}
	srv := server.New(cfg)
	defer srv.Close()
	srv.Log().SetWriteDelay(writeDelay)

	// One client per worker, each with a private page holding its object.
	clis := make([]*client.Client, nclients)
	oids := make([]quickstore.OID, nclients)
	for i := range clis {
		clis[i] = newClient(sc, mode, srv)
		tx, err := clis[i].Begin()
		if err != nil {
			log.Fatalf("benchcommit: setup begin: %v", err)
		}
		if _, err := tx.NewPage(); err != nil {
			log.Fatalf("benchcommit: setup page: %v", err)
		}
		oid, err := tx.Allocate(objectBytes)
		if err != nil {
			log.Fatalf("benchcommit: setup alloc: %v", err)
		}
		if err := tx.Write(oid, 0, make([]byte, objectBytes)); err != nil {
			log.Fatalf("benchcommit: setup write: %v", err)
		}
		if err := tx.Commit(); err != nil {
			log.Fatalf("benchcommit: setup commit: %v", err)
		}
		oids[i] = oid
	}

	before := srv.ExtendedStats()
	//qslint:allow determinism: throughput timer for the printed report; benchcommit measures real time by design
	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, nclients)
	for i := 0; i < nclients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			buf := make([]byte, objectBytes)
			for t := 0; t < nPerClient; t++ {
				copy(buf, fmt.Sprintf("client %d txn %d", i, t))
				tx, err := clis[i].Begin()
				if err == nil {
					if err = tx.Write(oids[i], 0, buf); err == nil {
						err = tx.Commit()
					} else {
						tx.Abort()
					}
				}
				if err != nil {
					errs[i] = fmt.Errorf("client %d txn %d: %w", i, t, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	//qslint:allow determinism: throughput timer for the printed report; benchcommit measures real time by design
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			log.Fatalf("benchcommit: %s %d clients: %v", sc, nclients, err)
		}
	}
	after := srv.ExtendedStats()

	r := Run{
		Scheme:          sc.String(),
		Clients:         nclients,
		Txns:            int64(nclients * nPerClient),
		Seconds:         elapsed.Seconds(),
		TxnsPerSec:      float64(nclients*nPerClient) / elapsed.Seconds(),
		Commits:         after.Commits - before.Commits,
		LogForces:       after.LogForces - before.LogForces,
		FlushesAvoided:  after.GroupCommit.FlushesAvoided - before.GroupCommit.FlushesAvoided,
		LatchContention: after.LatchContention - before.LatchContention,
		LockWaits:       after.LockWaits - before.LockWaits,
	}
	batches := after.GroupCommit.Batches - before.GroupCommit.Batches
	gcCommits := after.GroupCommit.Commits - before.GroupCommit.Commits
	if batches > 0 {
		r.MeanBatch = float64(gcCommits) / float64(batches)
	}
	for i := range after.GroupCommit.BatchSizes {
		r.BatchSizes = append(r.BatchSizes,
			after.GroupCommit.BatchSizes[i]-before.GroupCommit.BatchSizes[i])
	}
	return r
}

// newClient builds an in-process client session against srv, mirroring what
// quickstore.Open does for its embedded single client.
func newClient(sc quickstore.Scheme, mode server.Mode, srv *server.Server) *client.Client {
	var cs client.Scheme
	switch sc {
	case quickstore.PDESM, quickstore.PDREDO:
		cs = client.PD
	case quickstore.SDESM:
		cs = client.SD
	case quickstore.SLESM:
		cs = client.SL
	case quickstore.WPL:
		cs = client.WPL
	}
	return client.New(client.Config{
		Scheme:         cs,
		PoolPages:      1 << 20 / 8192 * 8, // 8 MB
		RecoveryBytes:  4 << 20,
		ShipDirtyPages: mode != server.ModeREDO,
	}, wire.NewDirect(srv, nil, nil))
}
