package store

import (
	"fmt"
	"math"
	"path"
	"strings"
	"time"

	"titanre/internal/console"
	"titanre/internal/topology"
	"titanre/internal/xid"
)

// Composable predicates over the event stream — the filter half of a
// titanql plan. A Predicate is compiled once into a Matcher; against a
// sealed segment the matcher evaluates to a position bitmap built by
// intersecting the stored per-code bitmaps with computed node/cabinet/
// cage and time-range bitmaps, so a multi-predicate scan touches only
// matching rows and its popcount sizes every allocation exactly.
// Against materialized events (the retained tail, and the naive batch
// reference) the same matcher tests one event at a time — the two paths
// must agree on every event, which the titanql equivalence gate proves
// byte-for-byte.

// Predicate is a conjunction of event filters; zero values mean
// unconstrained. Code membership, cname/cabinet globs and the cage index
// restrict where; Since/Until restrict when (inclusive, zero = open).
type Predicate struct {
	// Codes keeps only events carrying one of these codes (empty = any).
	Codes []xid.Code
	// NotCodes drops events carrying any of these codes.
	NotCodes []xid.Code
	// Node is a path.Match glob over the full cname ("c3-2c1s4n2",
	// "c3-*", "c?-0c2*"); empty = any node.
	Node string
	// Cabinet is a path.Match glob over the cabinet name ("c3-2",
	// "c3-*"); empty = any cabinet.
	Cabinet string
	// Cage keeps only events in this cage (0 = bottom); -1 or any
	// negative value = all cages.
	Cage int
	// Since and Until bound event times inclusively; zero = unbounded.
	Since, Until time.Time
}

// Compile validates the predicate and builds its Matcher. Globs are
// checked up front (a malformed pattern fails here, never mid-scan), and
// the node-level predicates are folded into one boolean mask over the
// machine's node space so a segment scan tests one slice index per row.
func (p Predicate) Compile() (*Matcher, error) {
	if p.Cage >= topology.CagesPerCabinet {
		return nil, fmt.Errorf("store: cage %d out of range (machine has %d)", p.Cage, topology.CagesPerCabinet)
	}
	for _, glob := range []string{p.Node, p.Cabinet} {
		if glob == "" {
			continue
		}
		if _, err := path.Match(glob, "probe"); err != nil {
			return nil, fmt.Errorf("store: bad glob %q", glob)
		}
	}
	m := &Matcher{p: p, lo: math.MinInt64, hi: math.MaxInt64}
	if !p.Since.IsZero() {
		m.lo = p.Since.Unix()
	}
	if !p.Until.IsZero() {
		m.hi = p.Until.Unix()
	}
	if p.Node != "" || p.Cabinet != "" || p.Cage >= 0 {
		// Cabinet globs are matched once per cabinet (200), the cname
		// glob once per node slot (19,200 interned names) — unless it
		// is a literal cname, which resolves straight to its one slot.
		cabOK := make([]bool, topology.Cabinets)
		for cab := range cabOK {
			cabOK[cab] = p.Cabinet == "" || globMatch(p.Cabinet, fmt.Sprintf("c%d-%d", cab%topology.Columns, cab/topology.Columns))
		}
		nodeOK := func(id topology.NodeID) bool {
			loc := topology.LocationOf(id)
			return cabOK[loc.Cabinet()] && (p.Cage < 0 || loc.Cage == p.Cage)
		}
		mask := make([]bool, topology.TotalNodes)
		if p.Node != "" && isLiteral(p.Node) {
			if id, err := topology.ParseNodeID(p.Node); err == nil && topology.CNameOf(id) == p.Node && nodeOK(id) {
				mask[id] = true
			}
		} else {
			for n := range mask {
				id := topology.NodeID(n)
				mask[n] = nodeOK(id) && (p.Node == "" || globMatch(p.Node, topology.CNameOf(id)))
			}
		}
		m.nodeMask = mask
	}
	return m, nil
}

// isLiteral reports whether a glob has no path.Match metacharacters,
// so it matches exactly the one name it spells.
func isLiteral(glob string) bool { return !strings.ContainsAny(glob, `*?[\`) }

// globMatch is path.Match for a glob Compile has already validated.
func globMatch(glob, name string) bool {
	if isLiteral(glob) {
		return glob == name
	}
	ok, _ := path.Match(glob, name)
	return ok
}

// Matcher is a compiled Predicate, shareable read-only across the
// segment-parallel workers. A nil *Matcher matches every event.
type Matcher struct {
	p        Predicate
	nodeMask []bool // nil = every node matches
	lo, hi   int64  // inclusive epoch-second bounds
}

// MatchEvent tests one materialized event — the kernel the retained
// tail and the naive batch reference share.
func (m *Matcher) MatchEvent(e console.Event) bool {
	if m == nil {
		return true
	}
	if sec := e.Time.Unix(); sec < m.lo || sec > m.hi {
		return false
	}
	if len(m.p.Codes) > 0 && !codeIn(e.Code, m.p.Codes) {
		return false
	}
	if codeIn(e.Code, m.p.NotCodes) {
		return false
	}
	if m.nodeMask != nil {
		if !e.Node.Valid() || !m.nodeMask[e.Node] {
			return false
		}
	}
	return true
}

// codeIn reports membership in a (short) code list.
func codeIn(c xid.Code, codes []xid.Code) bool {
	for _, want := range codes {
		if c == want {
			return true
		}
	}
	return false
}

// segMatch classifies how a matcher relates to one segment.
type segMatch int

const (
	matchNone segMatch = iota // no row matches; skip the segment
	matchAll                  // every row matches; scan without a bitmap
	matchSome                 // bits marks the matching rows
)

// segmentBits evaluates the matcher against one sealed segment. Code
// predicates start from the stored per-code bitmaps (a word-wise union,
// no column read); node predicates and partial time overlap each
// contribute a computed bitmap; the conjunction is word-wise ANDs (and
// an andNot for code exclusion). matchAll means the caller can stream
// the columns directly; matchNone means the segment contributes nothing
// (detected without touching rows when only code predicates apply).
func (m *Matcher) segmentBits(s *Segment) (bitmap, segMatch) {
	if m == nil {
		return bitmap{}, matchAll
	}
	if m.lo > s.maxT || m.hi < s.minT {
		return bitmap{}, matchNone
	}
	n := s.Len()
	var bits bitmap
	have := false
	if len(m.p.Codes) > 0 {
		bits = newBitmap(n)
		found := false
		for _, code := range m.p.Codes {
			if cb := s.findCode(code); cb != nil {
				bits.or(cb.bits)
				found = true
			}
		}
		if !found {
			return bitmap{}, matchNone
		}
		have = true
	}
	if len(m.p.NotCodes) > 0 {
		if !have {
			bits = newBitmapFull(n)
			have = true
		}
		for _, code := range m.p.NotCodes {
			if cb := s.findCode(code); cb != nil {
				bits.andNot(cb.bits)
			}
		}
	}
	if m.nodeMask != nil {
		nb := newBitmap(n)
		for i, node := range s.nodes {
			if m.nodeMask[node] {
				nb.set(i)
			}
		}
		if !have {
			bits, have = nb, true
		} else {
			bits.and(nb)
		}
	}
	if m.lo > s.minT || m.hi < s.maxT {
		tb := newBitmap(n)
		for i, t := range s.times {
			if t >= m.lo && t <= m.hi {
				tb.set(i)
			}
		}
		if !have {
			bits, have = tb, true
		} else {
			bits.and(tb)
		}
	}
	if !have {
		return bitmap{}, matchAll
	}
	if !bits.any() {
		return bitmap{}, matchNone
	}
	return bits, matchSome
}

// CountWhere reports how many of the segment's rows match — the
// popcount that pre-sizes result allocations.
func (s *Segment) CountWhere(m *Matcher) int {
	bits, kind := m.segmentBits(s)
	switch kind {
	case matchNone:
		return 0
	case matchAll:
		return s.Len()
	}
	return bits.count()
}

// ScanWhere appends every matching event to dst, walking only
// bitmap-marked positions and growing dst exactly once (by the
// popcount).
func (s *Segment) ScanWhere(m *Matcher, dst []console.Event) []console.Event {
	bits, kind := m.segmentBits(s)
	switch kind {
	case matchNone:
		return dst
	case matchAll:
		return s.AppendEvents(dst)
	}
	dst = grow(dst, bits.count())
	bits.forEach(func(i int) bool {
		dst = append(dst, s.EventAt(i))
		return true
	})
	return dst
}
