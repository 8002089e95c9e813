package store

import (
	"runtime"
	"sync"
	"sync/atomic"

	"titanre/internal/console"
)

// Segment-parallel query execution. Sealed segments are immutable (and,
// mapped, read-only pages), so independent workers can evaluate them
// concurrently with no locking at all: each worker folds whole segments
// into its own private accumulator, pulling segment indexes off one
// atomic counter, and the partials merge afterwards. Because every merge
// operation is commutative and associative (cell counts add, first/last
// take min/max) and the final Doc render sorts canonically, the document
// is byte-identical at any worker count and any assignment of segments
// to workers — the same determinism discipline the parallel simulator
// and report renderer follow.

// Acc is a query accumulator the scan driver folds matching rows into.
// Rollup and Top implement it. Rows arrive one whole segment at a time,
// so each implementation's row loop is a direct call over its columns;
// filtering is the matcher's job, never the accumulator's.
type Acc interface {
	// addSegment folds the rows of s that rows marks, or every row
	// when all is set.
	addSegment(s *Segment, rows bitmap, all bool)
	// addEvent folds one materialized event (the retained tail).
	addEvent(e console.Event)
	// fresh returns an empty accumulator with the same spec.
	fresh() Acc
	// merge folds o, an accumulator from fresh, into this one; o must
	// not be used afterwards.
	merge(o Acc)
	// Partial exports the raw accumulated state for a cross-replica
	// merge.
	Partial() Partial
	// AddPartial folds another row owner's exported state in.
	AddPartial(p Partial)
}

// queryWorkers resolves a worker-count request: <=0 means GOMAXPROCS,
// and there is never a reason to run more workers than segments.
func queryWorkers(workers, segs int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return max(1, min(workers, segs))
}

// Scan folds every row that m matches (nil matches all) into acc: the
// sealed segments concurrently over workers goroutines (<= 0 means
// GOMAXPROCS), each segment walked only at the positions its predicate
// bitmap marks, then the retained tail event by event. The accumulated
// result is identical at any worker count.
func Scan(segs []*Segment, tail []console.Event, m *Matcher, acc Acc, workers int) {
	workers = queryWorkers(workers, len(segs))
	if workers == 1 {
		for _, seg := range segs {
			scanSegment(seg, m, acc)
		}
	} else {
		parts := make([]Acc, workers)
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := range parts {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				// Built here, not by the launching goroutine: that
				// measured ~1.7x slower (BenchmarkStoreQueryNCPU).
				part := acc.fresh()
				for i := int(next.Add(1)) - 1; i < len(segs); i = int(next.Add(1)) - 1 {
					scanSegment(segs[i], m, part)
				}
				parts[w] = part
			}(w)
		}
		wg.Wait()
		for _, part := range parts {
			acc.merge(part)
		}
	}
	for _, e := range tail {
		if m.MatchEvent(e) {
			acc.addEvent(e)
		}
	}
}

// scanSegment folds the rows of s that m matches into acc; a segment
// the matcher rules out is skipped without touching its columns.
func scanSegment(s *Segment, m *Matcher, acc Acc) {
	if bits, kind := m.segmentBits(s); kind != matchNone {
		acc.addSegment(s, bits, kind == matchAll)
	}
}
