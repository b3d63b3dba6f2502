package experiments

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"mdspec/internal/faultinject"
)

// The journal is the sweep's write-ahead checkpoint store: every
// completed (benchmark, configuration) simulation is appended to
// <dir>/runs.0.journal as one length-prefixed, checksummed JSON entry
// the moment it finishes, and `mdexp -resume <dir>` replays the
// directory so already-finished cells of a killed sweep are primed
// into the runner's memo cache instead of re-simulated. Because each
// cell's statistics depend only on (recording, config, options) — the
// determinism contract the rest of the repository enforces — a
// replayed cell is bit-identical to re-running it, which makes
// resume-after-SIGKILL equivalent to an uninterrupted sweep.
//
// On-disk format: a magic line, then frames of
//
//	uint32 big-endian payload length
//	uint32 big-endian CRC-32 (IEEE) of the payload
//	payload JSON (one journalEntry)
//
// The first entry is a meta record fingerprinting the options that
// produced the journal (runner version, instruction budget, sampling
// windows); replay refuses a journal written under different options,
// since its cells would not be the cells of this sweep. Appends are
// fsynced entry by entry, so a crash can lose at most the entry being
// written — and a torn tail (truncated frame or checksum mismatch) is
// detected on the next open and truncated away, never parsed into the
// cache.
//
// A directory has one writer at a time: the journal file holds an
// exclusive kernel lock (lockFile) from OpenJournal to Close. The
// kernel drops that lock when its owner's file closes, also when the
// owner dies, so a killed writer's successor opens the journal at once.
//
// Older builds also wrote runs.journal, runs.sup.journal and one
// runs.w<N>.journal per fleet worker. Every such runs.*.journal is
// replayed read-only, before the journal's own file, and never
// written: its torn tail ends its replay and stays on disk.

// journalMagic identifies (and versions) the file format.
const journalMagic = "mdspec-journal/1\n"

// journalName is the file OpenJournal writes: the name older builds
// gave the single-process writer's segment, so their directories open
// with their journal in place.
const journalName = "runs.0.journal"

// journalPath returns the file the journal of dir appends to.
func journalPath(dir string) string { return filepath.Join(dir, journalName) }

// Fingerprint identifies the provenance tuple a result cache or
// checkpoint journal is keyed under, beyond the per-cell (benchmark,
// config hash) pair: the runner revision, the instruction budget, and
// the sampling windows. Two sweeps with equal Fingerprints request the
// same cells; mdserve uses it to refuse requests whose cells would not
// be this server's cells, exactly as the journal refuses a foreign
// file.
type Fingerprint struct {
	Runner           string `json:"runner_version"`
	Insts            int64  `json:"insts"`
	Sampled          bool   `json:"sampled"`
	TimingWindow     int64  `json:"timing_window,omitempty"`
	FunctionalWindow int64  `json:"functional_window,omitempty"`
	SegmentPeriods   int    `json:"segment_periods,omitempty"`
	// Phases is the phase cluster count of a phase-sampled sweep (0 when
	// phase selection is off): phase-weighted cells are not the cells of
	// an exhaustive sampled sweep, so the two must not prime each other.
	Phases int `json:"phases,omitempty"`
}

// Fingerprint derives the provenance fingerprint of the options: the
// journal's meta header and the mdserve request-validation key.
func (opt Options) Fingerprint() Fingerprint {
	m := Fingerprint{Runner: RunnerVersion, Insts: opt.Insts, Sampled: opt.Sampled}
	if opt.Sampled {
		m.TimingWindow = opt.timingWindow()
		m.FunctionalWindow = opt.functionalWindow()
		m.SegmentPeriods = opt.SegmentPeriods
		m.Phases = opt.Phases
	}
	return m
}

// journalEntry is one framed record: exactly one of Meta or Run is set.
type journalEntry struct {
	Meta *Fingerprint `json:"meta,omitempty"`
	Run  *RunRecord   `json:"run,omitempty"`
}

// Journal is an append-only, checksummed WAL of completed runs: the
// journal file of one directory, held under its exclusive lock until
// Close. Appends are serialized and fsynced; it is safe for concurrent
// use by a Runner's sweep workers.
type Journal struct {
	mu     sync.Mutex
	f      *os.File    //md:guardedby mu
	path   string      // immutable after OpenJournal
	replay ReplayStats // immutable after OpenJournal
}

// ErrJournalLocked reports that a directory's journal file is locked by
// another open journal, in this process or another one. The lock cannot
// name its holder.
type ErrJournalLocked struct {
	Path string // the journal file
}

func (e *ErrJournalLocked) Error() string {
	return fmt.Sprintf("journal: %s is held by another writer", e.Path)
}

// OpenJournal opens (or creates) the journal of dir, runs.0.journal,
// for a sweep running with opt, and returns the run records replayed
// from dir (ReplayJournalDir). The file stays locked until Close; while
// another open journal holds it, OpenJournal fails with
// *ErrJournalLocked. Under the lock, a torn tail left by a crash is
// truncated, and a file with no intact meta entry (fresh, or torn
// before its header was durable) is reset and initialized. A directory
// holding a journal file written under different options (budget,
// sampling windows, runner version) is refused untouched: its cells
// belong to a different sweep. No other file is created, locked or
// written.
func OpenJournal(dir string, opt Options) (*Journal, []RunRecord, error) {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	path := journalPath(dir)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o666)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	j := &Journal{f: f, path: path}
	recs, err := j.lockAndRepair(dir, opt)
	if err != nil {
		f.Close() //md:errok cleanup on an already-failing open; closing also drops the lock
		return nil, nil, err
	}
	return j, recs, nil
}

// OpenJournalSegment is OpenJournal; the id and the duration are
// ignored. It is kept for bench/probe.go until the probe calls
// OpenJournal.
func OpenJournalSegment(dir, _ string, opt Options, _ time.Duration) (*Journal, []RunRecord, error) {
	return OpenJournal(dir, opt)
}

// ReplayJournalDir is OpenJournal's replay without the lock or any
// write: the run records of the valid prefix of every journal file in
// dir, the files older builds left first (by name) and the journal's
// own last, keeping the last copy of each cell in the order of first
// appearance (cells are deterministic, so any copy is the cell). A
// file written under another provenance fingerprint is an error.
func ReplayJournalDir(dir string, opt Options) ([]RunRecord, error) {
	recs, _, _, err := replayDir(dir, opt.Fingerprint())
	return recs, err
}

// ReplayStats describes the replay of one OpenJournal.
type ReplayStats struct {
	Files   int           // journal files read
	Frames  int           // run frames decoded from their valid prefixes
	Elapsed time.Duration // reading, decoding and merging them
}

// replayDir is ReplayJournalDir that also returns the byte length of
// the journal file's valid prefix and the replay's stats.
func replayDir(dir string, want Fingerprint) (merged []RunRecord, ownLen int64, st ReplayStats, err error) {
	start := time.Now()
	entries, err := os.ReadDir(dir) // sorted by name
	if err != nil {
		return nil, 0, st, fmt.Errorf("journal: %w", err)
	}
	var files []string
	for _, e := range entries {
		name := e.Name()
		if e.Type().IsRegular() && name != journalName && strings.HasPrefix(name, "runs.") && strings.HasSuffix(name, ".journal") {
			files = append(files, filepath.Join(dir, name))
		}
	}
	files = append(files, journalPath(dir))
	var order []runKeyID
	byKey := make(map[runKeyID]RunRecord)
	for _, path := range files {
		recs, validLen, err := replayJournal(path, want)
		if err != nil {
			return nil, 0, st, err
		}
		ownLen = validLen // the journal's own file is the last
		st.Files++
		st.Frames += len(recs)
		for _, rec := range recs {
			k := runKeyID{rec.Bench, rec.ConfigHash}
			if _, seen := byKey[k]; !seen {
				order = append(order, k)
			}
			byKey[k] = rec
		}
	}
	merged = make([]RunRecord, 0, len(order))
	for _, k := range order {
		merged = append(merged, byKey[k])
	}
	st.Elapsed = time.Since(start)
	return merged, ownLen, st, nil
}

// lockAndRepair takes the journal file's lock and replays dir, then
// leaves the file ready for appending: a torn tail is truncated so the
// append cursor starts on a frame boundary, and a file with no intact
// meta entry gets the magic and the meta fingerprint first, so even an
// immediately-killed sweep leaves a parsable file. Nothing is written
// before every file in dir has replayed, so a directory of another
// sweep is refused untouched.
//
//md:nolock single-owner: OpenJournal calls lockAndRepair before the Journal is published to any other goroutine
func (j *Journal) lockAndRepair(dir string, opt Options) ([]RunRecord, error) {
	if err := lockFile(j.f); err != nil {
		return nil, err
	}
	if err := faultinject.PointErr(faultinject.SiteJournalLock); err != nil {
		return nil, err
	}
	want := opt.Fingerprint()
	recs, validLen, st, err := replayDir(dir, want)
	if err != nil {
		return nil, err
	}
	j.replay = st
	if err := j.f.Truncate(validLen); err != nil {
		return nil, fmt.Errorf("journal: truncating torn tail of %s: %w", j.path, err)
	}
	if validLen == 0 {
		if _, err := j.f.WriteString(journalMagic); err != nil {
			return nil, fmt.Errorf("journal: %w", err)
		}
		if err := j.append(journalEntry{Meta: &want}); err != nil {
			return nil, err
		}
	}
	return recs, nil
}

// ReplayStats reports the replay the journal's open performed.
func (j *Journal) ReplayStats() ReplayStats { return j.replay }

// Append journals one completed run and fsyncs it, making the cell
// durable against a crash from this point on.
func (j *Journal) Append(rec RunRecord) error {
	return j.append(journalEntry{Run: &rec})
}

func (j *Journal) append(e journalEntry) error {
	if err := faultinject.PointErr(faultinject.SiteJournalAppend); err != nil {
		return fmt.Errorf("journal: append to %s: %w", j.path, err)
	}
	frame, err := appendFrame(nil, e)
	if err != nil {
		return err
	}

	j.mu.Lock()
	defer j.mu.Unlock()
	// One Write call per frame: O_APPEND makes the frame a single
	// contiguous region even with concurrent appenders, and the fsync
	// pins it before Append reports the cell durable.
	if _, err := j.f.Write(frame); err != nil {
		return fmt.Errorf("journal: append to %s: %w", j.path, err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal: sync %s: %w", j.path, err)
	}
	return nil
}

// appendFrame appends e to b as one frame: payload length, payload
// CRC, JSON payload.
func appendFrame(b []byte, e journalEntry) ([]byte, error) {
	payload, err := json.Marshal(e)
	if err != nil {
		return b, fmt.Errorf("journal: %w", err)
	}
	b = binary.BigEndian.AppendUint32(b, uint32(len(payload)))
	b = binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
	return append(b, payload...), nil
}

// Close closes the journal file, which releases its lock.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}

// maxJournalEntry bounds one entry's payload; a length prefix beyond it
// is treated as corruption rather than allocated.
const maxJournalEntry = 64 << 20

// replayJournal scans path and returns the run records of its valid
// prefix, in file order, and the prefix's byte length. A torn or
// corrupt tail ends the scan at the last intact frame — every entry
// before it is replayed, nothing after it is trusted. The length is 0
// when the file holds no intact meta entry: it is missing, empty, or
// was torn before its header became durable, and OpenJournal
// re-initializes it.
func replayJournal(path string, want Fingerprint) ([]RunRecord, int64, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, fmt.Errorf("journal: %w", err)
	}
	if len(data) < len(journalMagic) && strings.HasPrefix(journalMagic, string(data)) {
		return nil, 0, nil // created, but torn before its magic line was whole
	}
	if !bytes.HasPrefix(data, []byte(journalMagic)) {
		return nil, 0, fmt.Errorf("journal: %s is not a journal (bad magic)", path)
	}
	bounds := frameBounds(data)
	entries := decodeFrames(data, bounds, min(runtime.GOMAXPROCS(0), (len(bounds)-1)/minFramesPerDecoder))
	sawMeta := false
	var recs []RunRecord
	for _, e := range entries {
		switch {
		case e.Meta != nil:
			if *e.Meta != want {
				return nil, 0, fmt.Errorf(
					"journal: %s was written with %+v; this sweep runs %+v — use a fresh -resume directory",
					path, *e.Meta, want)
			}
			sawMeta = true
		case e.Run != nil && e.Run.Stats != nil:
			recs = append(recs, *e.Run)
		}
	}
	if !sawMeta {
		if len(recs) > 0 {
			return nil, 0, fmt.Errorf("journal: %s has run entries but no meta header", path)
		}
		return nil, 0, nil
	}
	return recs, bounds[len(entries)], nil
}

// frameBounds walks the length prefixes after the magic line and
// returns where each frame starts, then where the last one ends: frame
// i spans bounds[i] to bounds[i+1]. The walk stops at the first frame
// whose length is implausible or whose bytes are not all present; CRCs
// and payloads are left to decodeFrames.
func frameBounds(data []byte) []int64 {
	bounds := []int64{int64(len(journalMagic))}
	for {
		off := bounds[len(bounds)-1]
		rest := data[off:]
		if len(rest) < 8 {
			return bounds
		}
		n := int64(binary.BigEndian.Uint32(rest[0:4]))
		if n == 0 || n > maxJournalEntry || int64(len(rest)) < 8+n {
			return bounds
		}
		bounds = append(bounds, off+8+n)
	}
}

// minFramesPerDecoder is the fewest frames worth a decoding goroutine;
// smaller files decode inline.
const minFramesPerDecoder = 64

// decodeFrames checks and parses the frames between bounds and returns
// the entries of the intact prefix: decoding stops at the first frame
// whose CRC fails or whose payload does not parse. The frames are split
// into contiguous runs decoded on that many goroutines, each frame into
// its own slot, so the prefix is the one a sequential reader finds.
func decodeFrames(data []byte, bounds []int64, workers int) []journalEntry {
	frames := len(bounds) - 1
	entries := make([]journalEntry, frames)
	if workers = min(workers, frames); workers <= 1 {
		return entries[:decodeRange(data, bounds, entries, 0, frames)]
	}
	// stop[w] is where worker w's run ended: its first bad frame, or the
	// end of its run.
	stop := make([]int, workers)
	var wg sync.WaitGroup
	for w := range stop {
		lo, hi := w*frames/workers, (w+1)*frames/workers
		wg.Add(1)
		go func() {
			defer wg.Done()
			stop[w] = decodeRange(data, bounds, entries, lo, hi)
		}()
	}
	wg.Wait()
	for w, n := range stop {
		if hi := (w + 1) * frames / workers; n < hi {
			return entries[:n]
		}
	}
	return entries
}

// decodeRange decodes frames [lo, hi) into entries and returns the
// index of the first one that fails, or hi.
func decodeRange(data []byte, bounds []int64, entries []journalEntry, lo, hi int) int {
	for i := lo; i < hi; i++ {
		off := bounds[i]
		payload := data[off+8 : bounds[i+1]]
		if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(data[off+4:off+8]) {
			return i
		}
		if err := json.Unmarshal(payload, &entries[i]); err != nil {
			return i
		}
	}
	return hi
}

// runKeyID keys journal entries the way -resume matches them: by
// benchmark and configuration hash (the meta header already pins the
// runner version and budget for the whole file).
type runKeyID struct {
	bench      string
	configHash string
}
