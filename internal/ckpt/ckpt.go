// Package ckpt persists warmed microarchitectural state so sampled
// simulations stop paying the O(stream position) functional fast-forward
// on every segment, sweep, and resume.
//
// A checkpoint Set is captured in a single functional pass: a standalone
// core.Warmer (the cache hierarchy and branch predictor the machine
// config implies) advances through the recording and snapshots its
// complete warm state at a fixed ascending schedule of stream positions
// — one frame per position. An interval-parallel segment then restores
// the nearest frame at or before its warm-up start and replays only the
// residue, turning per-segment warm-up from O(segment position) into
// O(checkpoint spacing). Restored state is bit-identical to a live
// fast-forward (enforced by tests down to reflect.DeepEqual on the
// merged statistics), so checkpointing changes wall-clock time only,
// never results.
//
// On disk a Set is one `MDCKPT01` file mirroring the `.mdrec`
// conventions: little-endian, CRC-32/IEEE framed (header+directory and
// every frame independently), written atomically via temp+rename, and
// content-addressed by the recording's program fingerprint plus a hash
// of the warm-state-relevant slice of the machine config (cache
// geometry selector + branch predictor kind). Machine configs that
// differ only in pipeline policy share one checkpoint file — warming
// touches caches and branch direction state, nothing policy-specific —
// which is what makes a sweep of N policies pay for one warm pass.
// Every validation failure surfaces as ErrCorrupt or ErrMismatch;
// callers fall back to the functional fast-forward and re-capture, so a
// torn or stale file can cost time but never correctness.
package ckpt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"mdspec/internal/atomicio"
	"mdspec/internal/bpred"
	"mdspec/internal/config"
	"mdspec/internal/core"
	"mdspec/internal/emu"
	"mdspec/internal/faultinject"
)

// Magic identifies a checkpoint-set file (version 01).
const Magic = "MDCKPT01"

const (
	hdrBytes     = 8 + 8 + 8 + 4 + 4 // magic, recFP, warmHash, count, stateLen
	dirEntrBytes = 8                 // frame position
	crcBytes     = 4
	// maxFrames bounds the frame count a header may claim before any
	// allocation happens (a corrupt count must not OOM the process).
	maxFrames = 1 << 20
)

// Sentinel failures. Both mean "ignore the file, fast-forward, and
// re-capture" — the distinction is only for diagnostics and tests.
var (
	// ErrCorrupt reports structural damage: bad magic, impossible
	// geometry, truncation, a CRC mismatch in any frame, or a frame
	// whose warm state is not at its directory position.
	ErrCorrupt = errors.New("ckpt: corrupt checkpoint file")
	// ErrMismatch reports a structurally sound file captured from a
	// different program recording or warm configuration.
	ErrMismatch = errors.New("ckpt: checkpoint does not match recording/config")
)

// WarmConfig is the slice of a machine configuration that functional
// warming can observe: the cache hierarchy selector and the branch
// predictor kind. Everything else — window size, issue width, load/store
// policy, dependence-predictor sizing — is invisible to a functional
// pass, so machines differing only there share checkpoint frames.
type WarmConfig struct {
	PerfectCaches   bool
	BranchPredictor bpred.Kind
}

// WarmConfigOf projects a full machine configuration onto its
// warm-state-relevant slice.
func WarmConfigOf(cfg config.Machine) WarmConfig {
	return WarmConfig{PerfectCaches: cfg.PerfectCaches, BranchPredictor: cfg.BranchPredictor}
}

// Hash returns the FNV-1a identity of the warm configuration, the
// config half of the content address.
func (w WarmConfig) Hash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	b0 := byte(0)
	if w.PerfectCaches {
		b0 = 1
	}
	for _, b := range [2]byte{b0, byte(w.BranchPredictor)} {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}

// Frame is one warm-state snapshot: the complete core.Warmer state
// (cache hierarchy, branch predictor, stream cursor) captured at stream
// position Seq. State aliases the decoded file buffer; treat it as
// read-only.
type Frame struct {
	Seq   int64
	State []byte
}

// Set is an ordered collection of frames captured from one recording
// under one warm configuration.
type Set struct {
	RecFP    uint64 // program/recording fingerprint (emu.ProgramFingerprint)
	WarmHash uint64 // WarmConfig.Hash of the capturing configuration
	Frames   []Frame
}

// Nearest returns the latest frame at or before target (manual binary
// search — this runs once per restored segment on the simulation path),
// or nil when no frame precedes target.
//
//md:hotpath
func (s *Set) Nearest(target int64) *Frame {
	lo, hi := 0, len(s.Frames) // invariant: Frames[:lo] <= target < Frames[hi:]
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.Frames[mid].Seq <= target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return nil
	}
	return &s.Frames[lo-1]
}

// SizeBytes returns the encoded on-disk footprint of the set.
func (s *Set) SizeBytes() int64 {
	n := int64(hdrBytes + crcBytes)
	for i := range s.Frames {
		n += dirEntrBytes + int64(len(s.Frames[i].State)) + crcBytes
	}
	return n
}

// Positions computes the checkpoint capture schedule for one sampled
// decomposition: the warm-up start of every mid-stream segment
// (segment boundaries come from parsim's fixed decomposition; all
// inputs must already be resolved to their effective values). Restoring
// at exactly these positions leaves zero functional residue per
// segment. The schedule is strictly ascending.
func Positions(totalTiming, timingInsts, functionalInsts int64, segmentPeriods int64, warmupInsts int64) []int64 {
	if totalTiming <= 0 || timingInsts <= 0 || functionalInsts < 0 || segmentPeriods <= 0 {
		return nil
	}
	period := timingInsts + functionalInsts
	nPeriods := (totalTiming + timingInsts - 1) / timingInsts
	var out []int64
	for p := segmentPeriods; p < nPeriods; p += segmentPeriods {
		if target := p*period - warmupInsts; target > 0 {
			out = append(out, target)
		}
	}
	return out
}

// Build captures a checkpoint set in one functional pass over the
// recording: a machine-shaped Warmer advances to each position in seqs
// (strictly ascending) and snapshots its state there. Positions past
// the end of a halted program are skipped — the frames that exist are
// exact — and a sealed prefix must reach the last position.
func Build(cfg config.Machine, rec *emu.Recording, recFP uint64, seqs []int64) (*Set, error) {
	tr := rec.NewReplay()
	w := core.NewMachineWarmer(cfg, tr)
	s := &Set{RecFP: recFP, WarmHash: WarmConfigOf(cfg).Hash(), Frames: make([]Frame, 0, len(seqs))}
	prev := int64(0)
	for _, seq := range seqs {
		if seq <= prev {
			return nil, fmt.Errorf("ckpt: capture positions not strictly ascending: %d after %d", seq, prev)
		}
		prev = seq
		w.AdvanceTo(seq)
		if w.Seq() < seq {
			break // recording ended before this position
		}
		s.Frames = append(s.Frames, Frame{Seq: seq, State: w.AppendState(nil)})
		tr.Release(w.Seq())
	}
	return s, nil
}

// Seqs returns the capture positions of the set's frames.
func (s *Set) Seqs() []int64 {
	out := make([]int64, len(s.Frames))
	for i := range s.Frames {
		out[i] = s.Frames[i].Seq
	}
	return out
}

// WriteFile atomically persists the set (temp file + rename, directory
// fsync), so concurrent readers see either the old complete file or the
// new one, never a torn write.
func (s *Set) WriteFile(path string) error {
	if err := faultinject.PointErr(faultinject.SiteCkptWrite); err != nil {
		return fmt.Errorf("ckpt: write %s: %w", path, err)
	}
	return atomicio.WriteFile(path, s.encode)
}

// encode streams the set in the MDCKPT01 layout:
//
//	header   magic[8] recFP[8] warmHash[8] count[4] stateLen[4]
//	dir      count × seq[8]
//	crc      CRC-32/IEEE of header+dir [4]
//	frames   count × (state[stateLen] crc[4])
func (s *Set) encode(w io.Writer) error {
	stateLen := 0
	if len(s.Frames) > 0 {
		stateLen = len(s.Frames[0].State)
	}
	hdr := make([]byte, 0, hdrBytes+len(s.Frames)*dirEntrBytes+crcBytes)
	hdr = append(hdr, Magic...)
	hdr = binary.LittleEndian.AppendUint64(hdr, s.RecFP)
	hdr = binary.LittleEndian.AppendUint64(hdr, s.WarmHash)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(s.Frames)))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(stateLen))
	for i := range s.Frames {
		hdr = binary.LittleEndian.AppendUint64(hdr, uint64(s.Frames[i].Seq))
	}
	hdr = binary.LittleEndian.AppendUint32(hdr, crc32.ChecksumIEEE(hdr))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	var crcBuf [crcBytes]byte
	for i := range s.Frames {
		st := s.Frames[i].State
		if len(st) != stateLen {
			return fmt.Errorf("ckpt: frame %d state length %d != %d", i, len(st), stateLen)
		}
		if _, err := w.Write(st); err != nil {
			return err
		}
		binary.LittleEndian.PutUint32(crcBuf[:], crc32.ChecksumIEEE(st))
		if _, err := w.Write(crcBuf[:]); err != nil {
			return err
		}
	}
	return nil
}

// OpenFile reads and fully validates a checkpoint set, verifying it was
// captured from the recording identified by recFP under the warm
// configuration hashed by warmHash. Every frame's CRC is checked
// eagerly, so a successfully opened set never fails at restore time. A
// missing file surfaces as an fs.ErrNotExist-wrapped error (a cache
// miss, not damage).
func OpenFile(path string, recFP, warmHash uint64) (*Set, error) {
	if err := faultinject.PointErr(faultinject.SiteCkptLoad); err != nil {
		return nil, fmt.Errorf("ckpt: open %s: %w", path, err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := Parse(b, recFP, warmHash)
	if err != nil {
		return nil, fmt.Errorf("ckpt: open %s: %w", path, err)
	}
	return s, nil
}

// Parse decodes and validates an encoded set. The returned frames alias
// b — callers must not modify the buffer afterwards.
func Parse(b []byte, recFP, warmHash uint64) (*Set, error) {
	if len(b) < hdrBytes+crcBytes {
		return nil, fmt.Errorf("%w: %d-byte file shorter than any header", ErrCorrupt, len(b))
	}
	if string(b[:8]) != Magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, b[:8])
	}
	gotRecFP := binary.LittleEndian.Uint64(b[8:])
	gotWarm := binary.LittleEndian.Uint64(b[16:])
	count := binary.LittleEndian.Uint32(b[24:])
	stateLen := binary.LittleEndian.Uint32(b[28:])
	if count > maxFrames {
		return nil, fmt.Errorf("%w: implausible frame count %d", ErrCorrupt, count)
	}
	dirEnd := hdrBytes + int(count)*dirEntrBytes
	if len(b) < dirEnd+crcBytes {
		return nil, fmt.Errorf("%w: truncated directory", ErrCorrupt)
	}
	if got, want := crc32.ChecksumIEEE(b[:dirEnd]), binary.LittleEndian.Uint32(b[dirEnd:]); got != want {
		return nil, fmt.Errorf("%w: header CRC %08x != %08x", ErrCorrupt, got, want)
	}
	// The header is now trustworthy; identity mismatches are reported as
	// such rather than as corruption.
	if gotRecFP != recFP || gotWarm != warmHash {
		return nil, fmt.Errorf("%w: file (rec %016x, warm %016x) vs want (rec %016x, warm %016x)",
			ErrMismatch, gotRecFP, gotWarm, recFP, warmHash)
	}
	frameBytes := int(stateLen) + crcBytes
	want := dirEnd + crcBytes + int(count)*frameBytes
	if len(b) != want {
		return nil, fmt.Errorf("%w: %d bytes, want %d for %d frames", ErrCorrupt, len(b), want, count)
	}
	s := &Set{RecFP: gotRecFP, WarmHash: gotWarm, Frames: make([]Frame, count)}
	prev := int64(0)
	off := dirEnd + crcBytes
	for i := range s.Frames {
		seq := int64(binary.LittleEndian.Uint64(b[hdrBytes+i*dirEntrBytes:]))
		if seq <= prev {
			return nil, fmt.Errorf("%w: frame positions not ascending (%d after %d)", ErrCorrupt, seq, prev)
		}
		prev = seq
		state := b[off : off+int(stateLen) : off+int(stateLen)]
		gotCRC := crc32.ChecksumIEEE(state)
		wantCRC := binary.LittleEndian.Uint32(b[off+int(stateLen):])
		if gotCRC != wantCRC {
			return nil, fmt.Errorf("%w: frame %d (seq %d) CRC %08x != %08x", ErrCorrupt, i, seq, gotCRC, wantCRC)
		}
		// A frame restores its state's own position, not its directory
		// entry's: a mismatch would resume the stream at the wrong place.
		if pos, err := core.StateSeq(state); err != nil || pos != seq {
			return nil, fmt.Errorf("%w: frame %d at seq %d is not a warm state at that position", ErrCorrupt, i, seq)
		}
		s.Frames[i] = Frame{Seq: seq, State: state}
		off += frameBytes
	}
	return s, nil
}
