package store

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"titanre/internal/console"
	"titanre/internal/xid"
)

// Store manages an ordered sequence of sealed segments in one
// directory (seg-000000.seg, seg-000001.seg, ...). Sealing appends;
// segments are never rewritten, so readers and the sealing writer only
// contend on the short in-memory registration.
type Store struct {
	mu        sync.RWMutex
	dir       string
	segs      []*Segment
	next      int // next segment file number
	diskBytes int64
	count     int
	mapped    bool // open segments via mmap; seals re-map after commit
}

// OpenOptions selects how OpenDir brings a store up.
type OpenOptions struct {
	// Recover quarantines corrupt segments instead of aborting the open
	// (the OpenRecover behaviour).
	Recover bool
	// Mapped backs sealed-segment reads with read-only file mappings
	// where the platform supports it (heap fallback elsewhere): columns
	// alias the page cache, so a large store scans at disk bandwidth
	// with near-zero resident heap. Segments sealed through a mapped
	// store are re-opened mapped after their atomic commit.
	Mapped bool
}

// QuarantineDir is the subdirectory corrupt segment files are moved
// into by OpenRecover, preserving the evidence for offline forensics
// without letting it block a restart.
const QuarantineDir = "quarantine"

// Recovery reports what OpenRecover had to do to bring a store up.
type Recovery struct {
	// Quarantined lists the segment file names (not paths) moved into
	// the quarantine subdirectory because they failed validation.
	Quarantined []string
	// QuarantinedBytes is their total on-disk size.
	QuarantinedBytes int64
	// OrphansRemoved counts .seg-* temp files — the debris of a crash
	// mid-commit, before the atomic rename — deleted during the open.
	OrphansRemoved int
}

// Open opens (or initializes) a segment store in dir. A missing
// directory is an empty store; it is created on first seal. Existing
// segment files are read, digest-validated, and registered in
// file-name order — the order they were sealed. Orphaned .seg-* temp
// files left by a crash mid-commit are removed. Any segment that fails
// validation aborts the open; use OpenRecover to quarantine it and
// start degraded instead.
func Open(dir string) (*Store, error) {
	st, _, err := OpenDir(dir, OpenOptions{})
	return st, err
}

// OpenRecover opens a segment store the way a restart after a crash
// must: orphaned temp files are removed, and a segment file that fails
// validation (ErrCorrupt — torn write, bit flip, truncation) is moved
// into dir/quarantine and counted instead of aborting the open. The
// surviving segments load normally; the Recovery report carries the
// exact quarantine accounting the caller surfaces. I/O errors that are
// not corruption (permissions, a vanished directory) still fail.
func OpenRecover(dir string) (*Store, Recovery, error) {
	return OpenDir(dir, OpenOptions{Recover: true})
}

// OpenDir opens a segment store with explicit options; Open and
// OpenRecover are shorthands for the heap-backed variants.
func OpenDir(dir string, opts OpenOptions) (*Store, Recovery, error) {
	st := &Store{dir: dir, mapped: opts.Mapped}
	var rec Recovery
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return st, rec, nil
	}
	if err != nil {
		return nil, rec, fmt.Errorf("store: opening %s: %w", dir, err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() {
			continue
		}
		if strings.HasPrefix(name, ".seg-") {
			// A temp file from an interrupted commit: its rename never
			// happened, so no reader ever saw it — safe to delete.
			if err := os.Remove(filepath.Join(dir, name)); err == nil {
				rec.OrphansRemoved++
			}
			continue
		}
		if filepath.Ext(name) == ".seg" {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		path := filepath.Join(dir, name)
		// Advance the numbering past every file seen — including ones
		// about to be quarantined — so a later seal never reuses the
		// name of a file now sitting in quarantine.
		var num int
		if _, err := fmt.Sscanf(name, "seg-%d.seg", &num); err == nil && num >= st.next {
			st.next = num + 1
		}
		seg, err := st.readSegment(path)
		if err != nil {
			if opts.Recover && errors.Is(err, ErrCorrupt) {
				size, qerr := quarantine(dir, name)
				if qerr != nil {
					return nil, rec, fmt.Errorf("store: quarantining %s: %w", path, qerr)
				}
				rec.Quarantined = append(rec.Quarantined, name)
				rec.QuarantinedBytes += size
				continue
			}
			return nil, rec, err
		}
		info, err := os.Stat(path)
		if err != nil {
			return nil, rec, fmt.Errorf("store: opening %s: %w", dir, err)
		}
		st.segs = append(st.segs, seg)
		st.diskBytes += info.Size()
		st.count += seg.Len()
	}
	return st, rec, nil
}

// quarantine moves one corrupt segment file into dir/quarantine,
// returning its size. The move is a same-filesystem rename, so the
// evidence bytes are preserved exactly.
func quarantine(dir, name string) (int64, error) {
	src := filepath.Join(dir, name)
	info, err := os.Stat(src)
	if err != nil {
		return 0, err
	}
	qdir := filepath.Join(dir, QuarantineDir)
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		return 0, err
	}
	if err := os.Rename(src, filepath.Join(qdir, name)); err != nil {
		return 0, err
	}
	if err := syncDir(dir); err != nil {
		return 0, err
	}
	return info.Size(), nil
}

// readSegment loads one segment file on the store's configured path —
// mapped when the store is, heap otherwise.
func (st *Store) readSegment(path string) (*Segment, error) {
	if st.mapped {
		return MapSegmentFile(path)
	}
	return ReadSegmentFile(path)
}

// Dir returns the store's directory.
func (st *Store) Dir() string { return st.dir }

// Close releases every file mapping the store holds. Segments must not
// be used afterwards; heap-backed stores ignore Close.
func (st *Store) Close() {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, seg := range st.segs {
		seg.Close()
	}
}

// MappedBytes reports the total size of live file mappings (0 when the
// store reads on the heap path).
func (st *Store) MappedBytes() int64 {
	st.mu.RLock()
	defer st.mu.RUnlock()
	var n int64
	for _, seg := range st.segs {
		n += seg.MappedBytes()
	}
	return n
}

// Prepared is a segment durably committed to disk but not yet visible
// to readers; Publish registers it. The split lets a caller do the slow
// half (build, write, fsync, rename) outside any reader-facing lock and
// then make the segment visible in the same critical section that
// retires the events it covers — readers never observe an event both
// sealed and retained. A crash between Prepare and Publish leaves a
// valid, loaded-but-unfloored segment file, the same window the sealed
// floor arithmetic already reconciles at warm start.
type Prepared struct {
	seg  *Segment
	size int64
}

// Segment returns the prepared segment (already readable, not yet
// registered).
func (p *Prepared) Segment() *Segment { return p.seg }

// Prepare builds a segment from events (in the order given) and commits
// it to disk atomically, without registering it. On error no visible
// file exists (WriteFile's temp-rename discipline), so a retry cannot
// duplicate events. On a mapped store the committed file is re-opened
// mapped, so the registered segment aliases the page cache rather than
// holding the build's heap columns.
func (st *Store) Prepare(events []console.Event) (*Prepared, error) {
	if len(events) == 0 {
		return nil, fmt.Errorf("store: sealing empty segment")
	}
	b := NewBuilder(len(events))
	for _, e := range events {
		if err := b.Append(e); err != nil {
			return nil, err
		}
	}
	seg, err := b.Seal()
	if err != nil {
		return nil, err
	}
	return st.PrepareSegment(seg)
}

// PrepareSegment commits an already-built segment to disk without
// registering it.
func (st *Store) PrepareSegment(seg *Segment) (*Prepared, error) {
	st.mu.Lock()
	if err := os.MkdirAll(st.dir, 0o755); err != nil {
		st.mu.Unlock()
		return nil, fmt.Errorf("store: creating %s: %w", st.dir, err)
	}
	num := st.next
	st.next++ // a failed Prepare burns the number; numbering may gap
	st.mu.Unlock()
	path := filepath.Join(st.dir, fmt.Sprintf("seg-%06d.seg", num))
	if err := seg.WriteFile(path); err != nil {
		return nil, err
	}
	info, err := os.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("store: sealing: %w", err)
	}
	if st.mapped {
		if mseg, err := MapSegmentFile(path); err == nil {
			seg = mseg
		}
	}
	return &Prepared{seg: seg, size: info.Size()}, nil
}

// Publish registers a prepared segment, making it visible to readers.
// Pure in-memory bookkeeping: it cannot fail, so a caller may publish
// inside a critical section that must not abort halfway.
func (st *Store) Publish(p *Prepared) *Segment {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.segs = append(st.segs, p.seg)
	st.diskBytes += p.size
	st.count += p.seg.Len()
	return p.seg
}

// Seal builds a segment from events (in the order given), writes it to
// disk, and registers it. Returns the sealed segment.
func (st *Store) Seal(events []console.Event) (*Segment, error) {
	p, err := st.Prepare(events)
	if err != nil {
		return nil, err
	}
	return st.Publish(p), nil
}

// SealSegment writes an already-built segment to disk and registers it.
func (st *Store) SealSegment(seg *Segment) error {
	p, err := st.PrepareSegment(seg)
	if err != nil {
		return err
	}
	st.Publish(p)
	return nil
}

// Segments returns a snapshot of the registered segments in seal order.
func (st *Store) Segments() []*Segment {
	st.mu.RLock()
	defer st.mu.RUnlock()
	out := make([]*Segment, len(st.segs))
	copy(out, st.segs)
	return out
}

// EventCount reports the total events across all segments.
func (st *Store) EventCount() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.count
}

// SegmentCount reports the number of sealed segments.
func (st *Store) SegmentCount() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return len(st.segs)
}

// DiskBytes reports the total on-disk size of sealed segment files.
func (st *Store) DiskBytes() int64 {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.diskBytes
}

// MemBytes estimates the resident footprint of all loaded segments.
func (st *Store) MemBytes() int64 {
	st.mu.RLock()
	defer st.mu.RUnlock()
	var n int64
	for _, seg := range st.segs {
		n += seg.MemBytes()
	}
	return n
}

// Events materializes every stored event in segment order, allocating
// the result exactly once.
func (st *Store) Events() []console.Event {
	segs := st.Segments()
	total := 0
	for _, seg := range segs {
		total += seg.Len()
	}
	out := make([]console.Event, 0, total)
	for _, seg := range segs {
		out = seg.AppendEvents(out)
	}
	return out
}

// ScanCode returns every event carrying code, in segment order,
// allocating the result exactly once via bitmap popcounts.
func (st *Store) ScanCode(code xid.Code) []console.Event {
	segs := st.Segments()
	total := 0
	for _, seg := range segs {
		total += seg.CountCode(code)
	}
	if total == 0 {
		return nil
	}
	out := make([]console.Event, 0, total)
	for _, seg := range segs {
		out = seg.ScanCode(code, out)
	}
	return out
}

// CountCode reports the fleet-wide total of events carrying code, by
// per-segment bitmap popcounts.
func (st *Store) CountCode(code xid.Code) int {
	total := 0
	for _, seg := range st.Segments() {
		total += seg.CountCode(code)
	}
	return total
}

// Codes returns the sorted union of event codes across all segments.
func (st *Store) Codes() []xid.Code {
	seen := make(map[xid.Code]bool)
	for _, seg := range st.Segments() {
		for _, c := range seg.Codes() {
			seen[c] = true
		}
	}
	out := make([]xid.Code, 0, len(seen))
	for c := range seen {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Digest hashes the console rendering (AppendRaw + newline) of every
// stored event in segment order — the round-trip identity check: a
// store sealed from a parsed log digests to the same value as the log
// bytes themselves.
func (st *Store) Digest() [sha256.Size]byte {
	h := sha256.New()
	var buf []byte
	for _, seg := range st.Segments() {
		for i := 0; i < seg.Len(); i++ {
			buf = seg.EventAt(i).AppendRaw(buf[:0])
			buf = append(buf, '\n')
			h.Write(buf)
		}
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}
