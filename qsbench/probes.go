package main

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"repro/internal/page"
	"repro/internal/wire"
)

// probe is a deterministic reproduction of a known defect. A probe that
// fails is counted in probe_failures; it never changes how a workload runs.
type probe struct {
	name string
	run  func(dir string) error // returns nil when the defect does not show
}

var probes = []probe{
	{"lost_update_on_shared_page", probeLostUpdate},
	{"wpl_restart_before_first_checkpoint", probeWPLFirstCheckpoint},
}

// probeLostUpdate: two clients of one PD-ESM server take turns — never
// concurrently — reading a counter on one shared page, incrementing it and
// committing. Every increment commits, so eight turns must leave 8.
func probeLostUpdate(dir string) error {
	e := &env{dir: dir}
	n, err := e.newNode(schemes[0], "probe-lost-update")
	if err != nil {
		return err
	}
	defer n.close()
	a := newPlainClient(n.sc, wire.NewDirect(n.srv, nil, nil))
	b := newPlainClient(n.sc, wire.NewDirect(n.srv, nil, nil))
	oids, err := newObjects(a, 8, [][]byte{make([]byte, 8)})
	if err != nil {
		return err
	}
	const turns = 8
	for t := 0; t < turns; t++ {
		c := a
		if t%2 == 1 {
			c = b
		}
		got, err := readObjects(c, oids)
		if err != nil {
			return err
		}
		next := make([]byte, 8)
		binary.LittleEndian.PutUint64(next, binary.LittleEndian.Uint64(got[0])+1)
		if err := writeObject(c, oids[0], next); err != nil {
			return err
		}
	}
	got, err := readObjects(newPlainClient(n.sc, wire.NewDirect(n.srv, nil, nil)), oids)
	if err != nil {
		return err
	}
	if v := binary.LittleEndian.Uint64(got[0]); v != turns {
		return fmt.Errorf("counter reads %d after %d committed increments", v, turns)
	}
	return nil
}

// probeWPLFirstCheckpoint: a fresh WPL volume commits five transactions,
// each on a new page, and crashes before its first checkpoint; restart must
// succeed and every committed object must read back.
func probeWPLFirstCheckpoint(dir string) error {
	e := &env{dir: dir}
	sc := schemeNamed("wpl")
	n, err := e.newNode(sc, "probe-wpl")
	if err != nil {
		return err
	}
	defer n.close()
	c := newPlainClient(sc, wire.NewDirect(n.srv, nil, nil))
	var oids []page.OID
	var want [][]byte
	for i := 0; i < 5; i++ {
		v := markerValue(0, uint64(i))
		o, err := newObjects(c, markerBytes, [][]byte{v})
		if err != nil {
			return err
		}
		oids, want = append(oids, o[0]), append(want, v)
	}
	n.srv.Crash()
	if err := n.srv.NewSession(nil, nil).Restart(); err != nil {
		return fmt.Errorf("restart after 5 commits: %w", err)
	}
	got, err := readObjects(newPlainClient(sc, wire.NewDirect(n.srv, nil, nil)), oids)
	if err != nil {
		return err
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			return fmt.Errorf("committed object %d lost across restart", i)
		}
	}
	return nil
}
