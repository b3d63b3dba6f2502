package bpred

import (
	"encoding/binary"
	"errors"
)

// Warm-state serialization: AppendState flattens every field a warming
// pass can mutate (direction tables, speculative history, BTB, RAS, and
// the statistics counters) into a little-endian byte stream, and
// RestoreState is the exact inverse. A restored predictor is
// bit-identical to one that observed the original branch stream.

// Sentinel decode errors (RestoreState is a hot path).
var (
	// ErrStateTruncated reports a state buffer shorter than its own
	// geometry implies.
	ErrStateTruncated = errors.New("bpred: warm state truncated")
	// ErrStateGeometry reports a state captured from a predictor with
	// different table sizes.
	ErrStateGeometry = errors.New("bpred: warm state geometry mismatch")
	// ErrStateRAS reports a negative return-address-stack top, which no
	// sequence of pushes and pops produces.
	ErrStateRAS = errors.New("bpred: warm state return stack top negative")
)

const (
	bpHdrBytes   = 3 * 4 // table entries, BTB entries, RAS entries
	btbEntrBytes = 4 + 4 + 1
	bpTailBytes  = 4 + 4 + 8 + 3*8 // history, btbWay, rasTop, three counters
)

// StateLen returns the exact AppendState footprint of this predictor.
func (p *Predictor) StateLen() int {
	return bpHdrBytes + 3*len(p.bimodal) + len(p.btb)*btbEntrBytes + 4*len(p.ras) + bpTailBytes
}

// AppendState appends the predictor's warm state to b and returns the
// extended slice.
func (p *Predictor) AppendState(b []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(p.bimodal)))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(p.btb)))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(p.ras)))
	for _, t := range [3][]counter{p.bimodal, p.gselect, p.selector} {
		for _, c := range t {
			b = append(b, byte(c))
		}
	}
	for i := range p.btb {
		e := &p.btb[i]
		b = binary.LittleEndian.AppendUint32(b, e.tag)
		b = binary.LittleEndian.AppendUint32(b, e.target)
		if e.valid {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	for _, a := range p.ras {
		b = binary.LittleEndian.AppendUint32(b, a)
	}
	b = binary.LittleEndian.AppendUint32(b, p.history)
	b = binary.LittleEndian.AppendUint32(b, p.btbWay)
	b = binary.LittleEndian.AppendUint64(b, uint64(p.rasTop))
	b = binary.LittleEndian.AppendUint64(b, p.Lookups)
	b = binary.LittleEndian.AppendUint64(b, p.DirMisses)
	return binary.LittleEndian.AppendUint64(b, p.TargetMisses)
}

// RestoreState overwrites the predictor's warm state from the front of b
// and returns the bytes consumed. The buffer is validated against the
// predictor's geometry, and its return-stack top checked, before
// anything is mutated.
//
//md:hotpath
func (p *Predictor) RestoreState(b []byte) (int, error) {
	if len(b) < bpHdrBytes {
		return 0, ErrStateTruncated
	}
	entries := binary.LittleEndian.Uint32(b)
	btbN := binary.LittleEndian.Uint32(b[4:])
	rasN := binary.LittleEndian.Uint32(b[8:])
	if int(entries) != len(p.bimodal) || int(btbN) != len(p.btb) || int(rasN) != len(p.ras) {
		return 0, ErrStateGeometry
	}
	if len(b) < p.StateLen() {
		return 0, ErrStateTruncated
	}
	if rasTop := int64(binary.LittleEndian.Uint64(b[p.StateLen()-bpTailBytes+8:])); rasTop < 0 {
		return 0, ErrStateRAS
	}
	off := bpHdrBytes
	for _, t := range [3][]counter{p.bimodal, p.gselect, p.selector} {
		for i := range t {
			t[i] = counter(b[off+i])
		}
		off += len(t)
	}
	for i := range p.btb {
		p.btb[i] = btbEntry{
			tag:    binary.LittleEndian.Uint32(b[off:]),
			target: binary.LittleEndian.Uint32(b[off+4:]),
			valid:  b[off+8] != 0,
		}
		off += btbEntrBytes
	}
	for i := range p.ras {
		p.ras[i] = binary.LittleEndian.Uint32(b[off:])
		off += 4
	}
	p.history = binary.LittleEndian.Uint32(b[off:])
	p.btbWay = binary.LittleEndian.Uint32(b[off+4:])
	p.rasTop = int(binary.LittleEndian.Uint64(b[off+8:]))
	p.Lookups = binary.LittleEndian.Uint64(b[off+16:])
	p.DirMisses = binary.LittleEndian.Uint64(b[off+24:])
	p.TargetMisses = binary.LittleEndian.Uint64(b[off+32:])
	return off + bpTailBytes, nil
}
