package store

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"titanre/internal/console"
	"titanre/internal/gpu"
	"titanre/internal/sim"
	"titanre/internal/topology"
	"titanre/internal/xid"
)

// simEvents builds one month of simulated events, batch-parsed back
// from their console rendering so timestamps carry the second
// resolution the store (and the console format) preserves.
func simEvents(t *testing.T) []console.Event {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.End = cfg.Start.AddDate(0, 1, 0)
	res := sim.Run(cfg)
	var log bytes.Buffer
	if err := console.WriteLog(&log, res.Events); err != nil {
		t.Fatalf("WriteLog: %v", err)
	}
	events, err := console.NewCorrelator().ParseAll(bytes.NewReader(log.Bytes()))
	if err != nil {
		t.Fatalf("ParseAll: %v", err)
	}
	return events
}

// TestRoundTripDigest is the tentpole identity: sealing a parsed log
// into segments and re-rendering through AppendRaw reproduces the log
// bytes exactly, digest for digest.
func TestRoundTripDigest(t *testing.T) {
	events := simEvents(t)
	var log bytes.Buffer
	if err := console.WriteLog(&log, events); err != nil {
		t.Fatalf("WriteLog: %v", err)
	}
	want := sha256.Sum256(log.Bytes())

	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	// Seal in three chunks to exercise multi-segment ordering.
	for _, cut := range [][2]int{{0, len(events) / 3}, {len(events) / 3, 2 * len(events) / 3}, {2 * len(events) / 3, len(events)}} {
		if _, err := st.Seal(events[cut[0]:cut[1]]); err != nil {
			t.Fatalf("Seal: %v", err)
		}
	}
	if got := st.Digest(); got != want {
		t.Fatalf("store digest %x != log digest %x", got, want)
	}

	// Reload from disk and digest again: the file format must round-trip.
	st2, err := Open(st.Dir())
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if got := st2.Digest(); got != want {
		t.Fatalf("reloaded digest %x != log digest %x", got, want)
	}
	if st2.EventCount() != len(events) {
		t.Fatalf("reloaded count %d != %d", st2.EventCount(), len(events))
	}
}

// TestEventsExact checks field-for-field equality of reconstructed
// events, including Compare-order identity.
func TestEventsExact(t *testing.T) {
	events := simEvents(t)
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := st.Seal(events); err != nil {
		t.Fatalf("Seal: %v", err)
	}
	got := st.Events()
	if len(got) != len(events) {
		t.Fatalf("got %d events, want %d", len(got), len(events))
	}
	for i := range events {
		if got[i] != events[i] {
			t.Fatalf("event %d mismatch:\n got %+v\nwant %+v", i, got[i], events[i])
		}
	}
}

// TestScanCodeMatchesFilter checks bitmap scans against a plain filter
// for every code present, and popcount-exact allocation.
func TestScanCodeMatchesFilter(t *testing.T) {
	events := simEvents(t)
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	half := len(events) / 2
	if _, err := st.Seal(events[:half]); err != nil {
		t.Fatalf("Seal: %v", err)
	}
	if _, err := st.Seal(events[half:]); err != nil {
		t.Fatalf("Seal: %v", err)
	}
	codes := st.Codes()
	if len(codes) == 0 {
		t.Fatal("no codes in store")
	}
	for _, code := range codes {
		var want []console.Event
		for _, e := range events {
			if e.Code == code {
				want = append(want, e)
			}
		}
		got := st.ScanCode(code)
		if len(got) != len(want) {
			t.Fatalf("code %v: got %d events, want %d", code, len(got), len(want))
		}
		if cap(got) != len(want) {
			t.Errorf("code %v: scan allocated cap %d for %d events (should be exact)", code, cap(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("code %v event %d mismatch", code, i)
			}
		}
	}
	if got := st.ScanCode(xid.Code(9999)); got != nil {
		t.Fatalf("absent code returned %d events", len(got))
	}
}

// TestScanNodePruning checks node scans (a cname and a time bound on
// ScanWhere) and that disjoint segments are pruned by min/max time.
func TestScanNodePruning(t *testing.T) {
	events := simEvents(t)
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	half := len(events) / 2
	if _, err := st.Seal(events[:half]); err != nil {
		t.Fatalf("Seal: %v", err)
	}
	if _, err := st.Seal(events[half:]); err != nil {
		t.Fatalf("Seal: %v", err)
	}
	node := events[0].Node
	since := events[half].Time
	var want []console.Event
	for _, e := range events {
		if e.Node == node && !e.Time.Before(since) {
			want = append(want, e)
		}
	}
	got := scanWhere(t, st, Predicate{Node: topology.CNameOf(node), Cage: -1, Since: since})
	if len(got) != len(want) {
		t.Fatalf("got %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d mismatch", i)
		}
	}
	segs := st.Segments()
	past, err := Predicate{Cage: -1, Since: segs[1].MaxTime().Add(time.Hour)}.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if _, kind := past.segmentBits(segs[0]); kind != matchNone {
		t.Fatal("first segment claims overlap past second segment's max time")
	}
}

// TestCorruptionDetected flips bytes across the file and requires every
// flip to be rejected with ErrCorrupt.
func TestCorruptionDetected(t *testing.T) {
	events := simEvents(t)[:200]
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := st.Seal(events); err != nil {
		t.Fatalf("Seal: %v", err)
	}
	path := filepath.Join(st.Dir(), "seg-000000.seg")
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	for _, pos := range []int{0, 9, 20, len(orig) / 2, len(orig) - 1} {
		data := bytes.Clone(orig)
		data[pos] ^= 0x40
		if _, err := Unmarshal(data); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at %d: got %v, want ErrCorrupt", pos, err)
		}
	}
	if _, err := Unmarshal(orig[:len(orig)-10]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated file: got %v, want ErrCorrupt", err)
	}
	if _, err := Unmarshal(nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("empty file: got %v, want ErrCorrupt", err)
	}
}

// TestCardDictOverflow checks the 255-serials-per-node bound.
func TestCardDictOverflow(t *testing.T) {
	b := NewBuilder(maxCardsPerNode + 1)
	base := console.Event{
		Time: time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC),
		Node: topology.NodeID(7),
		Code: 13,
		Page: console.NoPage,
	}
	for i := 0; i <= maxCardsPerNode; i++ {
		e := base
		e.Serial = gpu.Serial(1000 + i)
		err := b.Append(e)
		if i < maxCardsPerNode && err != nil {
			t.Fatalf("serial %d: unexpected error %v", i, err)
		}
		if i == maxCardsPerNode && err == nil {
			t.Fatal("256th distinct serial accepted")
		}
	}
}

// TestBuilderValidation checks code and node range errors.
func TestBuilderValidation(t *testing.T) {
	b := NewBuilder(1)
	e := console.Event{Time: time.Now(), Node: topology.NodeID(topology.TotalNodes), Code: 13, Page: console.NoPage}
	if err := b.Append(e); err == nil {
		t.Fatal("out-of-range node accepted")
	}
	e.Node = 0
	e.Code = 70000
	if err := b.Append(e); err == nil {
		t.Fatal("out-of-range code accepted")
	}
	if _, err := NewBuilder(0).Seal(); err == nil {
		t.Fatal("empty seal accepted")
	}
}

// TestOpenSkipsForeignFiles checks Open ignores non-.seg files and that
// sealing after reopen continues the file numbering.
func TestOpenSkipsForeignFiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	events := simEvents(t)[:100]
	if _, err := st.Seal(events[:50]); err != nil {
		t.Fatalf("Seal: %v", err)
	}
	st2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if _, err := st2.Seal(events[50:]); err != nil {
		t.Fatalf("Seal after reopen: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "seg-000001.seg")); err != nil {
		t.Fatalf("second segment file: %v", err)
	}
	st3, err := Open(dir)
	if err != nil {
		t.Fatalf("final reopen: %v", err)
	}
	if st3.EventCount() != 100 || st3.SegmentCount() != 2 {
		t.Fatalf("got %d events in %d segments, want 100 in 2", st3.EventCount(), st3.SegmentCount())
	}
}
