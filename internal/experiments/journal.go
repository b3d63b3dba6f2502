package experiments

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"mdspec/internal/atomicio"
	"mdspec/internal/faultinject"
)

// The journal is the sweep's write-ahead checkpoint store: every
// completed (benchmark, configuration) simulation is appended to
// <dir>/runs.journal as one length-prefixed, checksummed JSON entry the
// moment it finishes, and `mdexp -resume <dir>` replays the file so
// already-finished cells of a killed sweep are primed into the runner's
// memo cache instead of re-simulated. Because each segment's statistics
// depend only on (recording, config, options) — the determinism
// contract the rest of the repository enforces — a replayed cell is
// bit-identical to re-running it, which makes resume-after-SIGKILL
// equivalent to an uninterrupted sweep.
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

// journalName is the WAL's filename inside a -resume directory.
const journalName = "runs.journal"

// journalMagic identifies (and versions) the file format.
const journalMagic = "mdspec-journal/1\n"

// Segment naming: a multi-process journal directory holds one
// `runs.<id>.journal` per writer, each owned through a sibling
// `runs.<id>.lease` file, alongside (optionally) the legacy
// single-writer runs.journal, which is merged read-only.
const (
	segmentPrefix = "runs."
	segmentSuffix = ".journal"
	leaseSuffix   = ".lease"
)

// DefaultLeaseTTL is how long a segment lease stays valid without a
// heartbeat refresh. A writer that has not heartbeated for a full TTL
// is presumed dead and its lease may be reclaimed; live writers should
// heartbeat several times per TTL (see Journal.Heartbeat).
const DefaultLeaseTTL = 10 * time.Second

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

// Journal is an append-only, checksummed WAL of completed runs.
// Appends are serialized and fsynced; it is safe for concurrent use by
// a Runner's sweep workers. A Journal opened as a segment
// (OpenJournalSegment) additionally holds its segment's lease, which
// Heartbeat refreshes and Close releases.
type Journal struct {
	mu    sync.Mutex
	f     *os.File   //md:guardedby mu
	lease *leaseInfo //md:guardedby mu — nil for the legacy single-writer journal
	path  string     // immutable after OpenJournal
	// leasePath is the lease file's location; immutable, "" when unleased.
	leasePath string
}

// leaseInfo is the JSON body of a runs.<id>.lease file: who owns the
// segment and when they last proved they were alive.
type leaseInfo struct {
	Owner         string `json:"owner"`
	PID           int    `json:"pid"`
	AcquiredUnix  int64  `json:"acquired_unix"`
	HeartbeatUnix int64  `json:"heartbeat_unix"`
}

// ErrLeaseHeld reports that a journal segment is owned by another
// writer whose lease is still fresh (heartbeat within the TTL).
type ErrLeaseHeld struct {
	Path string        // the lease file
	PID  int           // the owner's pid, as recorded in the lease
	Age  time.Duration // time since the owner's last heartbeat
}

func (e *ErrLeaseHeld) Error() string {
	return fmt.Sprintf("journal: segment lease %s held by pid %d (heartbeat %.1fs ago)", e.Path, e.PID, e.Age.Seconds())
}

// OpenJournal opens (or creates) the journal in dir for a sweep running
// with opt, and returns the run records replayed from it (deduplicated,
// last entry per (bench, config hash) wins — in practice cells are
// journaled once). A torn tail left by a crash is truncated before the
// journal is reopened for appending. A journal written under different
// options (budget, sampling windows, runner version) is rejected: its
// cells belong to a different sweep.
func OpenJournal(dir string, opt Options) (*Journal, []RunRecord, error) {
	if err := atomicio.ProbeDir(dir); err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	return openJournalFile(filepath.Join(dir, journalName), opt.Fingerprint())
}

// SegmentPath returns the journal segment file a writer with the given
// id appends to inside dir.
func SegmentPath(dir, id string) string {
	return filepath.Join(dir, segmentPrefix+id+segmentSuffix)
}

func leasePath(dir, id string) string {
	return filepath.Join(dir, segmentPrefix+id+leaseSuffix)
}

// validSegmentID restricts segment ids to filename-safe tokens so a
// crafted id cannot escape the journal directory or collide with the
// legacy runs.journal.
func validSegmentID(id string) error {
	if id == "" {
		return fmt.Errorf("journal: empty segment id")
	}
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
		default:
			return fmt.Errorf("journal: segment id %q: only [A-Za-z0-9_-] allowed", id)
		}
	}
	return nil
}

// OpenJournalSegment opens this writer's own journal segment
// (runs.<id>.journal) in dir under an exclusive lease, truncating the
// segment's torn tail exactly as OpenJournal does for the legacy file,
// and returns the run records merged from *every* segment in dir —
// the legacy runs.journal, other writers' live segments, and this one.
// A fresh lease carries a heartbeat timestamp the owner must refresh
// (Heartbeat) several times per ttl; a lease whose heartbeat is older
// than a full ttl is presumed abandoned by a dead writer and is
// reclaimed. ttl <= 0 selects DefaultLeaseTTL.
//
// Torn tails of *other* writers' segments are skipped, never
// truncated: a tear there is either a live append in progress or a
// crash their next OpenJournalSegment will repair under its own lease.
func OpenJournalSegment(dir, id string, opt Options, ttl time.Duration) (*Journal, []RunRecord, error) {
	if err := atomicio.ProbeDir(dir); err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	if err := validSegmentID(id); err != nil {
		return nil, nil, err
	}
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}
	lease, err := acquireLease(dir, id, ttl)
	if err != nil {
		return nil, nil, err
	}
	j, _, err := openJournalFile(SegmentPath(dir, id), opt.Fingerprint())
	if err != nil {
		os.Remove(leasePath(dir, id)) //md:errok releasing a just-acquired lease on a failing open; the open error is the one reported
		return nil, nil, err
	}
	//md:nolock single-owner: OpenJournalSegment sets the lease before the Journal is published to any other goroutine
	j.lease = lease
	j.leasePath = leasePath(dir, id)
	recs, err := ReplayJournalDir(dir, opt)
	if err != nil {
		jerr := j.Close()
		_ = jerr //md:errok cleanup on an already-failing open; the replay error is the one reported
		return nil, nil, err
	}
	return j, recs, nil
}

// ReplayJournalDir replays every journal segment in dir read-only —
// the legacy runs.journal plus all runs.<id>.journal segments, in
// lexical filename order — and returns the merged, deduplicated run
// records (last entry per (bench, config hash) wins, as within a
// single file; cells are deterministic, so any copy is the cell). Torn
// tails end each file's scan without failing the merge. A segment
// written under a different provenance fingerprint is an error, just
// as for a single-file journal.
func ReplayJournalDir(dir string, opt Options) ([]RunRecord, error) {
	want := opt.Fingerprint()
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	var files []string
	for _, e := range entries {
		name := e.Name()
		if e.Type().IsRegular() && (name == journalName ||
			(strings.HasPrefix(name, segmentPrefix) && strings.HasSuffix(name, segmentSuffix))) {
			files = append(files, name)
		}
	}
	sort.Strings(files)
	var order []runKeyID
	byKey := make(map[runKeyID]RunRecord)
	for _, name := range files {
		recs, _, err := replayJournal(filepath.Join(dir, name), want)
		if err != nil {
			return nil, err
		}
		for _, rec := range recs {
			k := runKeyID{rec.Bench, rec.ConfigHash}
			if _, seen := byKey[k]; !seen {
				order = append(order, k)
			}
			byKey[k] = rec
		}
	}
	merged := make([]RunRecord, 0, len(order))
	for _, k := range order {
		merged = append(merged, byKey[k])
	}
	return merged, nil
}

// acquireLease claims segment id's lease in dir via O_EXCL creation.
// A held lease whose heartbeat is older than ttl is reclaimed with a
// rename-to-claim step so two racing reclaimers cannot both win: the
// rename succeeds for exactly one of them, the other loops and finds
// the winner's fresh lease.
func acquireLease(dir, id string, ttl time.Duration) (*leaseInfo, error) {
	if err := faultinject.PointErr(faultinject.SiteLeaseAcquire); err != nil {
		return nil, fmt.Errorf("journal: acquiring lease for segment %s: %w", id, err)
	}
	path := leasePath(dir, id)
	for tries := 0; tries < 4; tries++ {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o666)
		if err == nil {
			now := time.Now().Unix()
			info := &leaseInfo{Owner: id, PID: os.Getpid(), AcquiredUnix: now, HeartbeatUnix: now}
			data, merr := json.Marshal(info)
			if merr == nil {
				_, merr = f.Write(data)
			}
			if serr := f.Sync(); merr == nil {
				merr = serr
			}
			if cerr := f.Close(); merr == nil {
				merr = cerr
			}
			if merr != nil {
				os.Remove(path) //md:errok releasing a half-written lease; the write error is the one reported
				return nil, fmt.Errorf("journal: writing lease %s: %w", path, merr)
			}
			return info, nil
		}
		if !os.IsExist(err) {
			return nil, fmt.Errorf("journal: lease %s: %w", path, err)
		}
		// Lease exists: fresh means held, stale (or unparsable — a torn
		// lease write is itself evidence of a dead writer) means reclaim.
		data, rerr := os.ReadFile(path)
		if rerr != nil {
			if os.IsNotExist(rerr) {
				continue // released between our create and read; retry
			}
			return nil, fmt.Errorf("journal: lease %s: %w", path, rerr)
		}
		var held leaseInfo
		var hb time.Time
		if json.Unmarshal(data, &held) == nil && held.HeartbeatUnix > 0 {
			hb = time.Unix(held.HeartbeatUnix, 0)
		}
		if age := time.Since(hb); age <= ttl {
			return nil, &ErrLeaseHeld{Path: path, PID: held.PID, Age: age}
		}
		claim := fmt.Sprintf("%s.reclaim.%d", path, os.Getpid())
		if rerr := os.Rename(path, claim); rerr != nil {
			if os.IsNotExist(rerr) {
				continue // another reclaimer won the rename; retry sees their lease
			}
			return nil, fmt.Errorf("journal: reclaiming stale lease %s: %w", path, rerr)
		}
		if rerr := os.Remove(claim); rerr != nil && !os.IsNotExist(rerr) {
			return nil, fmt.Errorf("journal: removing reclaimed lease %s: %w", claim, rerr)
		}
	}
	return nil, fmt.Errorf("journal: lease %s: could not acquire after repeated reclaim races", path)
}

// BreakLease force-releases segment id's lease in dir. Only a caller
// that has independently confirmed the owner is dead may use it — the
// fleet supervisor calls it after waitpid on a crashed worker, so the
// restarted incarnation reacquires its segment immediately instead of
// waiting out the heartbeat TTL.
func BreakLease(dir, id string) error {
	if err := validSegmentID(id); err != nil {
		return err
	}
	if err := os.Remove(leasePath(dir, id)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("journal: breaking lease for segment %s: %w", id, err)
	}
	return nil
}

// Heartbeat refreshes the segment lease's liveness timestamp. Owners
// of a leased segment must call it several times per lease TTL (the
// fleet worker runs it on a ticker); on the legacy unleased journal it
// is a no-op.
func (j *Journal) Heartbeat() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.lease == nil {
		return nil
	}
	j.lease.HeartbeatUnix = time.Now().Unix()
	data, err := json.Marshal(j.lease)
	if err != nil {
		return fmt.Errorf("journal: lease heartbeat: %w", err)
	}
	if err := atomicio.WriteFile(j.leasePath, func(w io.Writer) error {
		_, werr := w.Write(data)
		return werr
	}); err != nil {
		return fmt.Errorf("journal: lease heartbeat: %w", err)
	}
	return nil
}

// openJournalFile opens (or creates) one journal file for appending:
// replay, torn-tail truncation, and fresh-file initialization.
func openJournalFile(path string, want Fingerprint) (*Journal, []RunRecord, error) {
	recs, validLen, err := replayJournal(path, want)
	if err != nil {
		return nil, nil, err
	}
	if validLen >= 0 {
		// Existing journal: drop a torn tail so the append cursor starts
		// on a frame boundary.
		if err := os.Truncate(path, validLen); err != nil {
			return nil, nil, fmt.Errorf("journal: truncating torn tail of %s: %w", path, err)
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o666)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	j := &Journal{f: f, path: path}
	if validLen < 0 {
		// Fresh journal: write the magic and the meta fingerprint first,
		// so even an immediately-killed sweep leaves a parsable file.
		if err := j.init(want); err != nil {
			f.Close() //md:errok cleanup on an already-failing open; the init error is the one reported
			return nil, nil, err
		}
	}
	return j, recs, nil
}

// Path returns the journal file's location.
func (j *Journal) Path() string { return j.path }

// init writes the magic line and the meta entry of a fresh journal.
//
//md:nolock single-owner: OpenJournal calls init before the Journal is published to any other goroutine
func (j *Journal) init(meta Fingerprint) error {
	if _, err := j.f.WriteString(journalMagic); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return j.append(journalEntry{Meta: &meta})
}

// Append journals one completed run and fsyncs it, making the cell
// durable against a crash from this point on.
func (j *Journal) Append(rec RunRecord) error {
	return j.append(journalEntry{Run: &rec})
}

func (j *Journal) append(e journalEntry) error {
	if err := faultinject.PointErr(faultinject.SiteJournalAppend); err != nil {
		return fmt.Errorf("journal: append to %s: %w", j.path, err)
	}
	payload, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	var frame bytes.Buffer
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	frame.Write(hdr[:])
	frame.Write(payload)

	j.mu.Lock()
	defer j.mu.Unlock()
	// One Write call per frame: O_APPEND makes the frame a single
	// contiguous region even with concurrent appenders, and the fsync
	// pins it before Append reports the cell durable.
	if _, err := j.f.Write(frame.Bytes()); err != nil {
		return fmt.Errorf("journal: append to %s: %w", j.path, err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal: sync %s: %w", j.path, err)
	}
	return nil
}

// Close closes the journal file and, for a leased segment, releases
// the lease so a successor can take the segment over without waiting
// out the TTL.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	err := j.f.Close()
	if j.lease != nil {
		j.lease = nil
		if rerr := os.Remove(j.leasePath); rerr != nil && !os.IsNotExist(rerr) && err == nil {
			err = fmt.Errorf("journal: releasing lease %s: %w", j.leasePath, rerr)
		}
	}
	return err
}

// maxJournalEntry bounds one entry's payload; a length prefix beyond it
// is treated as corruption rather than allocated.
const maxJournalEntry = 64 << 20

// replayJournal scans path and returns the deduplicated run records and
// the byte length of the valid prefix. A missing file returns
// validLen = -1 (nothing to truncate, journal needs initialization). A
// torn or corrupt tail ends the scan at the last intact frame — every
// entry before it is replayed, nothing after it is trusted.
func replayJournal(path string, want Fingerprint) ([]RunRecord, int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, -1, nil
		}
		return nil, 0, fmt.Errorf("journal: %w", err)
	}
	if !bytes.HasPrefix(data, []byte(journalMagic)) {
		return nil, 0, fmt.Errorf("journal: %s is not a runs.journal (bad magic)", path)
	}
	off := int64(len(journalMagic))
	sawMeta := false
	var order []runKeyID
	byKey := make(map[runKeyID]RunRecord)
	for {
		entry, next, ok := readFrame(data, off)
		if !ok {
			break // torn or corrupt tail: valid prefix ends at off
		}
		switch {
		case entry.Meta != nil:
			if *entry.Meta != want {
				return nil, 0, fmt.Errorf(
					"journal: %s was written with %+v; this sweep runs %+v — use a fresh -resume directory",
					path, *entry.Meta, want)
			}
			sawMeta = true
		case entry.Run != nil && entry.Run.Stats != nil:
			k := runKeyID{entry.Run.Bench, entry.Run.ConfigHash}
			if _, seen := byKey[k]; !seen {
				order = append(order, k)
			}
			byKey[k] = *entry.Run
		}
		off = next
	}
	if !sawMeta {
		if len(byKey) > 0 {
			return nil, 0, fmt.Errorf("journal: %s has run entries but no meta header", path)
		}
		// Magic written but the meta entry itself was torn off: treat as
		// empty and re-initialize from the magic onward.
		return nil, -1, nil
	}
	recs := make([]RunRecord, 0, len(order))
	for _, k := range order {
		recs = append(recs, byKey[k])
	}
	return recs, off, nil
}

// runKeyID keys journal entries the way -resume matches them: by
// benchmark and configuration hash (the meta header already pins the
// runner version and budget for the whole file).
type runKeyID struct {
	bench      string
	configHash string
}

// readFrame decodes the frame at off. ok is false when the remaining
// bytes do not contain one intact, checksum-clean, parsable frame.
func readFrame(data []byte, off int64) (e journalEntry, next int64, ok bool) {
	rest := data[off:]
	if len(rest) < 8 {
		return e, 0, false
	}
	n := int64(binary.BigEndian.Uint32(rest[0:4]))
	sum := binary.BigEndian.Uint32(rest[4:8])
	if n <= 0 || n > maxJournalEntry || int64(len(rest)) < 8+n {
		return e, 0, false
	}
	payload := rest[8 : 8+n]
	if crc32.ChecksumIEEE(payload) != sum {
		return e, 0, false
	}
	if err := json.Unmarshal(payload, &e); err != nil {
		return e, 0, false
	}
	return e, off + 8 + n, true
}
