package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
)

// objectBytes is the size of a commit-workload object and of every write
// to it.
const objectBytes = 64

// objectValue is what client i's private object holds after the client
// committed its write number seq: the client id, seq, and filler bytes drawn
// from the run's seed.
func objectValue(seed int64, i int, seq uint64) []byte {
	b := make([]byte, objectBytes)
	binary.LittleEndian.PutUint64(b[0:], uint64(i))
	binary.LittleEndian.PutUint64(b[8:], seq)
	rng := rand.New(rand.NewSource(seed*31 + int64(i)))
	rng.Read(b[16:])
	return b
}

// checkObjects counts the objects whose contents differ from the client's
// last committed write.
func checkObjects(seed int64, last []uint64, got [][]byte) int {
	bad := 0
	for i := range last {
		if i >= len(got) || !bytes.Equal(got[i], objectValue(seed, i, last[i])) {
			bad++
		}
	}
	return bad
}

// xy is an atomic part's (x, y) pair.
type xy struct{ x, y uint32 }

// partModel predicts a module's atomic parts. A T2B traversal increments
// each atomic part once per visit of its composite part, and a composite
// part is visited once per base-assembly reference to it, which may be zero
// or several. So a part's increment per traversal, its multiplicity, is
// measured at set-up by one calibrating traversal.
type partModel struct {
	start []xy     // values before the calibrating traversal
	mult  []uint32 // increment per committed T2B traversal
}

// newPartModel derives the multiplicities from the values before and after
// one committed traversal.
func newPartModel(before, after []xy) (partModel, error) {
	m := partModel{start: before, mult: make([]uint32, len(before))}
	if len(after) != len(before) {
		return m, fmt.Errorf("calibration read %d parts, want %d", len(after), len(before))
	}
	for i := range before {
		dx, dy := after[i].x-before[i].x, after[i].y-before[i].y
		if dx != dy {
			return m, fmt.Errorf("calibration: part %d moved x by %d but y by %d", i, dx, dy)
		}
		m.mult[i] = dx
	}
	return m, nil
}

// check counts the atomic parts that do not hold their start value plus n
// times their multiplicity, where n is the number of T2B traversals
// committed over the module (the calibrating one included): every committed
// increment must be present and no increment of an uncommitted traversal
// may be.
func (m partModel) check(n int, got []xy) int {
	bad := 0
	for i, s := range m.start {
		inc := uint32(n) * m.mult[i]
		if i >= len(got) || got[i].x != s.x+inc || got[i].y != s.y+inc {
			bad++
		}
	}
	return bad
}

// markerBytes is the size of the small object a crash cycle's first commit
// writes.
const markerBytes = 16

func markerValue(seed int64, stamp uint64) []byte {
	b := make([]byte, markerBytes)
	binary.LittleEndian.PutUint64(b[0:], uint64(seed))
	binary.LittleEndian.PutUint64(b[8:], stamp)
	return b
}

// checkMarker reports whether a marker object holds the last committed
// stamp.
func checkMarker(seed int64, stamp uint64, got []byte) bool {
	return bytes.Equal(got, markerValue(seed, stamp))
}
