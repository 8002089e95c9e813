package store

import (
	"bytes"
	"os"
	"sync"
	"testing"
	"time"

	"titanre/internal/console"
	"titanre/internal/sim"
)

// benchFixture seals one simulated month into a shared directory once;
// every benchmark re-opens it, so each measures the cold query path —
// open (read or map, digest verify, bitmap build) plus a full scan —
// the way titand reads a sealed store back.
var benchFixture = sync.OnceValue(func() struct {
	dir    string
	events int
	disk   int64
} {
	cfg := sim.DefaultConfig()
	cfg.End = cfg.Start.AddDate(0, 1, 0)
	res := sim.Run(cfg)
	var log bytes.Buffer
	if err := console.WriteLog(&log, res.Events); err != nil {
		panic(err)
	}
	events, err := console.NewCorrelator().ParseAll(bytes.NewReader(log.Bytes()))
	if err != nil {
		panic(err)
	}
	dir, err := os.MkdirTemp("", "titanre-bench-store")
	if err != nil {
		panic(err)
	}
	st, err := Open(dir)
	if err != nil {
		panic(err)
	}
	const chunk = 1 << 16
	for lo := 0; lo < len(events); lo += chunk {
		hi := min(lo+chunk, len(events))
		if _, err := st.Seal(events[lo:hi]); err != nil {
			panic(err)
		}
	}
	return struct {
		dir    string
		events int
		disk   int64
	}{dir, len(events), st.DiskBytes()}
})

var benchSpec = RollupSpec{ByCode: true, ByCabinet: true, Bucket: time.Hour}

// benchRollup folds every column through the rollup kernel — a full
// scan of the store without materializing a single event.
func benchRollup(b *testing.B, st *Store, events int) {
	b.Helper()
	doc := rollupScan(b, st.Segments(), nil, benchSpec, nil, 1)
	if doc.TotalEvents != int64(events) {
		b.Fatalf("rollup covered %d events, fixture has %d", doc.TotalEvents, events)
	}
}

// BenchmarkStoreScanHeap is the heap query path at a bounded memory
// budget: the daemon cannot keep decoded column copies of every sealed
// segment resident, so each query pays a cold open — file read, digest
// verify, column copies to heap — before the scan.
func BenchmarkStoreScanHeap(b *testing.B) {
	fx := benchFixture()
	b.SetBytes(fx.disk)
	b.ReportAllocs()
	b.ResetTimer()
	for b.Loop() {
		st, _, err := OpenDir(fx.dir, OpenOptions{})
		if err != nil {
			b.Fatal(err)
		}
		benchRollup(b, st, fx.events)
	}
}

// BenchmarkStoreScanMapped is the same scan against the long-lived
// read-only mapping: the columns alias the page cache at ~zero heap
// cost, the mapping persists across queries (verified once at map
// time), so a query is just the kernel walking mapped pages. This is
// the steady state titand serves /rollup and /codes/{xid}/history from.
func BenchmarkStoreScanMapped(b *testing.B) {
	fx := benchFixture()
	st, _, err := OpenDir(fx.dir, OpenOptions{Mapped: true})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	b.SetBytes(fx.disk)
	b.ReportAllocs()
	b.ResetTimer()
	for b.Loop() {
		benchRollup(b, st, fx.events)
	}
}

// BenchmarkStoreRollup measures the steady-state rollup kernel over an
// already-open store: ns per event streamed through addRow, and the
// per-query allocation bill (the accumulator map plus the rendered
// doc — bounded, never per-event).
func BenchmarkStoreRollup(b *testing.B) {
	fx := benchFixture()
	st, _, err := OpenDir(fx.dir, OpenOptions{Mapped: true})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for b.Loop() {
		doc := rollupScan(b, st.Segments(), nil, benchSpec, nil, 1)
		if doc.TotalEvents != int64(fx.events) {
			b.Fatalf("rollup covered %d events, fixture has %d", doc.TotalEvents, fx.events)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(fx.events), "ns/event")
}

// queryBenchFixture re-seals the shared month into many small segments
// (its own directory), so the segment-parallel executor has enough
// independent units of work to spread across cores.
var queryBenchFixture = sync.OnceValue(func() struct {
	dir    string
	events int
	disk   int64
} {
	fx := benchFixture()
	src, _, err := OpenDir(fx.dir, OpenOptions{Mapped: true})
	if err != nil {
		panic(err)
	}
	defer src.Close()
	events := src.Events()
	dir, err := os.MkdirTemp("", "titanre-bench-query")
	if err != nil {
		panic(err)
	}
	st, err := Open(dir)
	if err != nil {
		panic(err)
	}
	const chunk = 1 << 13
	for lo := 0; lo < len(events); lo += chunk {
		hi := min(lo+chunk, len(events))
		if _, err := st.Seal(events[lo:hi]); err != nil {
			panic(err)
		}
	}
	return struct {
		dir    string
		events int
		disk   int64
	}{dir, len(events), st.DiskBytes()}
})

// benchQuery runs one representative composed titanql workload — a
// compound predicate (code set ∪ via bitmaps, cage via the node mask)
// under a grouped, bucketed rollup — across the whole store at the given
// worker count.
func benchQuery(b *testing.B, workers int) {
	fx := queryBenchFixture()
	st, _, err := OpenDir(fx.dir, OpenOptions{Mapped: true})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	m, err := Predicate{Cage: 2}.Compile()
	if err != nil {
		b.Fatal(err)
	}
	spec := RollupSpec{ByCode: true, ByCage: true, Bucket: 6 * time.Hour}
	segs := st.Segments()
	b.SetBytes(fx.disk)
	b.ReportAllocs()
	b.ResetTimer()
	for b.Loop() {
		doc := rollupScan(b, segs, nil, spec, m, workers)
		if doc.TotalEvents <= 0 || doc.TotalEvents >= int64(fx.events) {
			b.Fatalf("cage predicate kept %d of %d events", doc.TotalEvents, fx.events)
		}
	}
}

// BenchmarkStoreQuery1CPU is the composed-query workload pinned to one
// worker — the single-core baseline the parallel gate compares against.
func BenchmarkStoreQuery1CPU(b *testing.B) { benchQuery(b, 1) }

// BenchmarkStoreQueryNCPU is the same workload at GOMAXPROCS workers —
// bench.sh records both MB/s figures and gates the speedup at >= 2x on
// machines with >= 4 cores.
func BenchmarkStoreQueryNCPU(b *testing.B) { benchQuery(b, 0) }

// BenchmarkStoreTop measures the offender ranking over the same store.
func BenchmarkStoreTop(b *testing.B) {
	fx := benchFixture()
	st, _, err := OpenDir(fx.dir, OpenOptions{Mapped: true})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	spec := TopSpec{By: TopByNode, K: 20}
	b.ReportAllocs()
	b.ResetTimer()
	for b.Loop() {
		doc := topScan(b, st.Segments(), nil, spec, nil, 1)
		if doc.TotalEvents != int64(fx.events) {
			b.Fatalf("top covered %d events, fixture has %d", doc.TotalEvents, fx.events)
		}
	}
}
