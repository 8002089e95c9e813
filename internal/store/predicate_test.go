package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"path"
	"testing"
	"time"

	"titanre/internal/console"
	"titanre/internal/topology"
	"titanre/internal/xid"
)

// TestBitmapOps checks the word-wise set algebra against a naive
// per-bit model, across widths that cross word boundaries.
func TestBitmapOps(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 63, 64, 65, 127, 128, 1000} {
		a, b := newBitmap(n), newBitmap(n)
		av, bv := make([]bool, n), make([]bool, n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				a.set(i)
				av[i] = true
			}
			if rng.Intn(3) == 0 {
				b.set(i)
				bv[i] = true
			}
		}
		check := func(op string, got bitmap, want func(x, y bool) bool) {
			t.Helper()
			count := 0
			for i := 0; i < n; i++ {
				w := want(av[i], bv[i])
				if got.get(i) != w {
					t.Fatalf("n=%d %s: bit %d = %v, want %v", n, op, i, got.get(i), w)
				}
				if w {
					count++
				}
			}
			if got.count() != count {
				t.Fatalf("n=%d %s: count %d, want %d", n, op, got.count(), count)
			}
		}
		and := a.clone()
		and.and(b)
		check("and", and, func(x, y bool) bool { return x && y })
		or := a.clone()
		or.or(b)
		check("or", or, func(x, y bool) bool { return x || y })
		andNot := a.clone()
		andNot.andNot(b)
		check("andNot", andNot, func(x, y bool) bool { return x && !y })

		full := newBitmapFull(n)
		if full.count() != n {
			t.Fatalf("newBitmapFull(%d).count() = %d", n, full.count())
		}
		if n%64 != 0 {
			// Trailing bits past n must stay clear or count would lie.
			if w := full.words[len(full.words)-1]; w>>(uint(n)&63) != 0 {
				t.Fatalf("newBitmapFull(%d) set bits past n", n)
			}
		}
		if full.any() != true || newBitmap(n).any() != false {
			t.Fatal("any() misreports")
		}
	}
}

// predCases is a predicate mix covering every filter dimension and
// their conjunctions.
func predCases(events []console.Event) []Predicate {
	mid := events[len(events)/2].Time
	end := events[3*len(events)/4].Time
	return []Predicate{
		{Cage: -1},
		{Codes: []xid.Code{xid.DoubleBitError}, Cage: -1},
		{Codes: []xid.Code{13, 31, xid.OffTheBus}, Cage: -1},
		{Codes: []xid.Code{99}, Cage: -1}, // absent code: empty result
		{NotCodes: []xid.Code{13}, Cage: -1},
		{Codes: []xid.Code{13, 48}, NotCodes: []xid.Code{48}, Cage: -1},
		{Node: "c3-*", Cage: -1},
		{Node: "c?-1c2s*", Cage: -1},
		{Cabinet: "c3-2", Cage: -1},
		{Cabinet: "c*-0", Cage: 2},
		{Cage: 0},
		{Since: mid, Cage: -1},
		{Until: mid, Cage: -1},
		{Since: mid, Until: end, Cage: -1},
		{Codes: []xid.Code{xid.DoubleBitError, 13}, Cabinet: "c1-*", Cage: 1, Since: mid, Until: end},
	}
}

// TestSegmentBitsMatchEvent: for every predicate, the bitmap a sealed
// segment evaluates must mark exactly the rows whose reconstructed
// events MatchEvent accepts — the two filter paths agree row for row.
func TestSegmentBitsMatchEvent(t *testing.T) {
	events := simEvents(t)
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	third := len(events) / 3
	for _, cut := range [][2]int{{0, third}, {third, 2 * third}, {2 * third, len(events)}} {
		if _, err := st.Seal(events[cut[0]:cut[1]]); err != nil {
			t.Fatal(err)
		}
	}
	for pi, p := range predCases(events) {
		m, err := p.Compile()
		if err != nil {
			t.Fatalf("pred %d: %v", pi, err)
		}
		total := 0
		for si, seg := range st.Segments() {
			var want []console.Event
			for i := 0; i < seg.Len(); i++ {
				if m.MatchEvent(seg.EventAt(i)) {
					want = append(want, seg.EventAt(i))
				}
			}
			if got := seg.CountWhere(m); got != len(want) {
				t.Fatalf("pred %d seg %d: CountWhere %d, want %d", pi, si, got, len(want))
			}
			got := seg.ScanWhere(m, nil)
			if len(got) != len(want) {
				t.Fatalf("pred %d seg %d: ScanWhere %d events, want %d", pi, si, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("pred %d seg %d: event %d diverges", pi, si, i)
				}
			}
			total += len(got)
		}
		// ScanWhere pre-sizes by popcount: no reallocation happens.
		if total > 0 {
			seg := st.Segments()[0]
			out := seg.ScanWhere(m, nil)
			if out != nil && cap(out) != len(out) {
				t.Fatalf("pred %d: ScanWhere over-allocated cap %d for %d events", pi, cap(out), len(out))
			}
		}
	}
}

// TestPredicateValidation: bad globs and out-of-range cages fail at
// Compile, never mid-scan, and literal names compile to exactly the
// node mask path.Match would build.
func TestPredicateValidation(t *testing.T) {
	for _, p := range []Predicate{
		{Node: "c[3-", Cage: -1},
		{Cabinet: "c[", Cage: -1},
		{Cage: 3},
		{Cage: 99},
	} {
		if _, err := p.Compile(); err == nil {
			t.Fatalf("predicate %+v compiled, want error", p)
		}
	}

	// Literal names resolve without globbing; every mask must equal the
	// path.Match reference over the whole node space.
	for _, p := range []Predicate{
		{Node: "c3-2c1s4n2", Cage: -1},
		{Node: "c0-0c0s0n0", Cage: -1},
		{Node: "c7-24c2s7n3", Cage: -1},
		{Node: "c3-2c1s4n2", Cage: 1},
		{Node: "c3-2c1s4n2", Cage: 0},
		{Node: "c3-2c1s4n2", Cabinet: "c3-2", Cage: -1},
		{Node: "c3-2c1s4n2", Cabinet: "c3-1", Cage: -1},
		{Node: "c9-0c0s0n0", Cage: -1},  // column out of range
		{Node: "c3-2c1s4n9", Cage: -1},  // node out of range
		{Node: "c03-2c1s4n2", Cage: -1}, // non-canonical spelling
		{Node: "c3-2", Cage: -1},
		{Node: `c3\-2c1s4n2`, Cage: -1},
		{Cabinet: "c3-2", Cage: -1},
		{Cabinet: "c7-24", Cage: 2},
		{Cabinet: "c3-25", Cage: -1}, // row out of range
		{Cabinet: `c3\-2`, Cage: -1},
		{Cabinet: "c3-2", Node: "c3-2c1*", Cage: -1},
	} {
		m, err := p.Compile()
		if err != nil {
			t.Fatalf("predicate %+v: %v", p, err)
		}
		for n := range topology.TotalNodes {
			id := topology.NodeID(n)
			loc := topology.LocationOf(id)
			want := p.Cage < 0 || loc.Cage == p.Cage
			if p.Cabinet != "" {
				ok, _ := path.Match(p.Cabinet, fmt.Sprintf("c%d-%d", loc.Column, loc.Row))
				want = want && ok
			}
			if p.Node != "" {
				ok, _ := path.Match(p.Node, topology.CNameOf(id))
				want = want && ok
			}
			if m.nodeMask[n] != want {
				t.Fatalf("predicate %+v: node %s mask %v, path.Match reference %v", p, topology.CNameOf(id), m.nodeMask[n], want)
			}
		}
	}
}

// TestRollupWhereMatchesEventFold: the scan driver over sealed segments
// plus a tail renders byte-identically to the naive fold — filter the
// materialized stream with MatchEvent, then run the plain event kernel
// — across predicates and sealed/tail split points.
func TestRollupWhereMatchesEventFold(t *testing.T) {
	events := simEvents(t)
	spec := RollupSpec{ByCode: true, ByCage: true, Bucket: 6 * time.Hour}
	topSpec := TopSpec{By: TopByNode, K: 10}
	for _, split := range []int{0, 1, len(events) / 2, len(events) - 1, len(events)} {
		st, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		sealed := events[:split]
		const chunk = 20000
		for lo := 0; lo < len(sealed); lo += chunk {
			hi := min(lo+chunk, len(sealed))
			if _, err := st.Seal(sealed[lo:hi]); err != nil {
				t.Fatal(err)
			}
		}
		tail := events[split:]
		for pi, p := range predCases(events) {
			m, err := p.Compile()
			if err != nil {
				t.Fatalf("pred %d: %v", pi, err)
			}
			var kept []console.Event
			for _, e := range events {
				if m.MatchEvent(e) {
					kept = append(kept, e)
				}
			}
			wantRoll, err := RollupEvents(kept, spec)
			if err != nil {
				t.Fatal(err)
			}
			gotRoll := rollupScan(t, st.Segments(), tail, spec, m, 1)
			if !jsonEqual(t, gotRoll, wantRoll) {
				t.Fatalf("split %d pred %d: rollup diverges from naive event fold", split, pi)
			}
			wantTop, err := TopEvents(kept, topSpec)
			if err != nil {
				t.Fatal(err)
			}
			gotTop := topScan(t, st.Segments(), tail, topSpec, m, 1)
			if !jsonEqual(t, gotTop, wantTop) {
				t.Fatalf("split %d pred %d: top diverges from naive event fold", split, pi)
			}
		}
	}
}

// TestParallelByteIdentical: the segment-parallel executor renders the
// identical bytes at every worker count, matcher or not.
func TestParallelByteIdentical(t *testing.T) {
	events := simEvents(t)
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const chunk = 8192
	for lo := 0; lo < len(events)*3/4; lo += chunk {
		hi := min(lo+chunk, len(events)*3/4)
		if _, err := st.Seal(events[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
	tail := events[len(events)*3/4:]
	spec := RollupSpec{ByCode: true, ByCabinet: true, Bucket: time.Hour}
	topSpec := TopSpec{By: TopBySerial, K: 25}
	for _, p := range []*Predicate{nil, {Codes: []xid.Code{13, 48}, Cabinet: "c*-1", Cage: -1}} {
		var m *Matcher
		if p != nil {
			if m, err = p.Compile(); err != nil {
				t.Fatal(err)
			}
		}
		refRoll := rollupScan(t, st.Segments(), tail, spec, m, 1)
		refTop := topScan(t, st.Segments(), tail, topSpec, m, 1)
		// Serial reference equals the plain event fold when unfiltered.
		if p == nil {
			old, err := RollupEvents(events, spec)
			if err != nil {
				t.Fatal(err)
			}
			if !jsonEqual(t, refRoll, old) {
				t.Fatal("Scan(workers=1, nil matcher) diverges from RollupEvents")
			}
		}
		for _, workers := range []int{2, 3, 4, 7, 16, 0} {
			gotRoll := rollupScan(t, st.Segments(), tail, spec, m, workers)
			if !jsonEqual(t, gotRoll, refRoll) {
				t.Fatalf("workers=%d: rollup bytes diverge", workers)
			}
			gotTop := topScan(t, st.Segments(), tail, topSpec, m, workers)
			if !jsonEqual(t, gotTop, refTop) {
				t.Fatalf("workers=%d: top bytes diverge", workers)
			}
		}
	}
}

// jsonEqual compares two documents by their rendered JSON bytes — the
// same representation the HTTP handlers serve.
func jsonEqual(t *testing.T, a, b any) bool {
	t.Helper()
	aj, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	bj, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Equal(aj, bj)
}
