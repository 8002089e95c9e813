// Package store is the append-only columnar event store: sealed,
// immutable segments hold critical events as struct-of-arrays columns
// (epoch seconds, XID code, interned node id, card index, annotation
// arena) instead of []console.Event, cutting the per-event footprint
// from a pointer-heavy 64-byte struct plus time.Time internals to
// ~16 bytes of flat columns. Each segment carries its min/max time and
// per-code bitmaps so scans prune whole segments and allocate exact
// result sizes up front. Segments round-trip byte-identically through
// console.AppendRaw: sealing truncates nothing the console line format
// keeps (timestamps are second-resolution already), so a store built
// from a parsed log re-renders the identical log.
package store

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"time"

	"titanre/internal/console"
	"titanre/internal/gpu"
	"titanre/internal/topology"
	"titanre/internal/xid"
)

// noCard marks an event whose node accumulated no serial dictionary
// entry; it never appears in sealed segments (every event carries a
// serial, even serial 0) but keeps the zero value distinguishable.
const noCard = 0xFF

// maxCardsPerNode bounds the per-node serial dictionary: card indexes
// are one byte and 0xFF is reserved.
const maxCardsPerNode = 255

// Arena flag bits, first byte of every annotation record.
const (
	flagStruct = 1 << 0 // StructureValid: a structure byte follows the job varint
	flagPage   = 1 << 1 // Page >= 0: a page uvarint follows the structure byte
)

// Builder accumulates events in columnar form and seals them into an
// immutable Segment. Events may arrive in any order; Seal preserves the
// append order (callers wanting canonical order sort before appending).
type Builder struct {
	times []int64
	codes []uint16 // int16 two's complement: codes span -2 (OffTheBus) .. 99
	nodes []uint32
	cards []uint8
	offs  []uint32 // n+1 entries; offs[i]..offs[i+1] is event i's arena record
	arena []byte

	// serials is the per-node card dictionary: first-seen order, so the
	// same event sequence always seals to the same bytes.
	serials map[uint32][]uint32

	minT, maxT int64
}

// NewBuilder returns a Builder pre-sized for capacity events.
func NewBuilder(capacity int) *Builder {
	b := &Builder{
		times:   make([]int64, 0, capacity),
		codes:   make([]uint16, 0, capacity),
		nodes:   make([]uint32, 0, capacity),
		cards:   make([]uint8, 0, capacity),
		offs:    make([]uint32, 1, capacity+1),
		arena:   make([]byte, 0, capacity*3),
		serials: make(map[uint32][]uint32),
		minT:    math.MaxInt64,
		maxT:    math.MinInt64,
	}
	return b
}

// Len reports the number of appended events.
func (b *Builder) Len() int { return len(b.times) }

// Append adds one event to the builder.
func (b *Builder) Append(e console.Event) error {
	if e.Code < math.MinInt16 || e.Code > math.MaxInt16 {
		return fmt.Errorf("store: code %d out of int16 range", e.Code)
	}
	if e.Node < 0 || int(e.Node) >= topology.TotalNodes {
		return fmt.Errorf("store: node %d out of range", e.Node)
	}
	node := uint32(e.Node)
	card, err := b.cardOf(node, uint32(e.Serial))
	if err != nil {
		return err
	}
	sec := e.Time.Unix()
	if sec < b.minT {
		b.minT = sec
	}
	if sec > b.maxT {
		b.maxT = sec
	}
	b.times = append(b.times, sec)
	b.codes = append(b.codes, uint16(int16(e.Code)))
	b.nodes = append(b.nodes, node)
	b.cards = append(b.cards, card)

	var flags byte
	if e.StructureValid {
		flags |= flagStruct
	}
	if e.Page >= 0 {
		flags |= flagPage
	}
	b.arena = append(b.arena, flags)
	b.arena = binary.AppendVarint(b.arena, int64(e.Job))
	if e.StructureValid {
		b.arena = append(b.arena, byte(e.Structure))
	}
	if e.Page >= 0 {
		b.arena = binary.AppendUvarint(b.arena, uint64(e.Page))
	}
	if len(b.arena) > math.MaxUint32 {
		return fmt.Errorf("store: annotation arena exceeds 4 GiB")
	}
	b.offs = append(b.offs, uint32(len(b.arena)))
	return nil
}

// cardOf interns serial into node's dictionary and returns its card index.
func (b *Builder) cardOf(node, serial uint32) (uint8, error) {
	dict := b.serials[node]
	for i, s := range dict {
		if s == serial {
			return uint8(i), nil
		}
	}
	if len(dict) >= maxCardsPerNode {
		return noCard, fmt.Errorf("store: node %d has more than %d distinct serials in one segment", node, maxCardsPerNode)
	}
	b.serials[node] = append(dict, serial)
	return uint8(len(dict)), nil
}

// Seal freezes the builder into an immutable Segment, computing the
// per-code bitmaps in one pass over the code column. The builder must
// not be reused afterwards.
func (b *Builder) Seal() (*Segment, error) {
	if len(b.times) == 0 {
		return nil, fmt.Errorf("store: sealing empty segment")
	}
	s := &Segment{
		times:   b.times,
		codes:   b.codes,
		nodes:   b.nodes,
		cards:   b.cards,
		offs:    b.offs,
		arena:   b.arena,
		serials: b.serials,
		minT:    b.minT,
		maxT:    b.maxT,
	}
	s.buildBitmaps()
	return s, nil
}

// codeBitmap pairs one XID code with the positions it occupies.
type codeBitmap struct {
	code int16
	bits bitmap
}

// Segment is one immutable struct-of-arrays block of events.
type Segment struct {
	times []int64
	codes []uint16
	nodes []uint32
	cards []uint8
	offs  []uint32
	arena []byte

	serials map[uint32][]uint32

	minT, maxT int64
	byCode     []codeBitmap // sorted ascending by code

	// For a segment whose columns alias a read-only mapping
	// (MapSegmentFile): the unmap closer and the mapping size. Nil/zero
	// for heap-backed segments.
	unmap       func()
	mappedBytes int64
}

// Mapped reports whether the segment's columns alias a file mapping.
func (s *Segment) Mapped() bool { return s.unmap != nil }

// MappedBytes reports the size of the backing mapping (0 if heap-backed).
func (s *Segment) MappedBytes() int64 { return s.mappedBytes }

// Close releases the file mapping, if any. The segment must not be
// used afterwards: its columns alias the unmapped region. Heap-backed
// segments ignore Close.
func (s *Segment) Close() {
	if s.unmap != nil {
		s.unmap()
		s.unmap = nil
	}
}

// buildBitmaps computes the per-code position bitmaps.
func (s *Segment) buildBitmaps() {
	counts := make(map[int16]int)
	for _, c := range s.codes {
		counts[int16(c)]++
	}
	codes := make([]int16, 0, len(counts))
	for c := range counts {
		codes = append(codes, c)
	}
	sort.Slice(codes, func(i, j int) bool { return codes[i] < codes[j] })
	s.byCode = make([]codeBitmap, len(codes))
	for i, c := range codes {
		s.byCode[i] = codeBitmap{code: c, bits: newBitmap(len(s.codes))}
	}
	idx := make(map[int16]int, len(codes))
	for i, c := range codes {
		idx[c] = i
	}
	for i, c := range s.codes {
		s.byCode[idx[int16(c)]].bits.set(i)
	}
}

// Len reports the number of events in the segment.
func (s *Segment) Len() int { return len(s.times) }

// MinTime and MaxTime bound the segment's events (inclusive), the keys
// segment pruning uses.
func (s *Segment) MinTime() time.Time { return time.Unix(s.minT, 0).UTC() }
func (s *Segment) MaxTime() time.Time { return time.Unix(s.maxT, 0).UTC() }

// Codes returns the distinct event codes present, ascending.
func (s *Segment) Codes() []xid.Code {
	out := make([]xid.Code, len(s.byCode))
	for i, cb := range s.byCode {
		out[i] = xid.Code(cb.code)
	}
	return out
}

// CountCode reports how many events carry code, by bitmap popcount.
func (s *Segment) CountCode(code xid.Code) int {
	if cb := s.findCode(code); cb != nil {
		return cb.bits.count()
	}
	return 0
}

func (s *Segment) findCode(code xid.Code) *codeBitmap {
	c := int16(code)
	lo, hi := 0, len(s.byCode)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.byCode[mid].code < c {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(s.byCode) && s.byCode[lo].code == c {
		return &s.byCode[lo]
	}
	return nil
}

// EventAt reconstructs event i. The result compares equal (==) to the
// event that was appended, modulo sub-second truncation that the
// console line format performs anyway.
func (s *Segment) EventAt(i int) console.Event {
	e := console.Event{
		Time: time.Unix(s.times[i], 0).UTC(),
		Node: topology.NodeID(s.nodes[i]),
		Code: xid.Code(int16(s.codes[i])),
		Page: console.NoPage,
	}
	if dict := s.serials[s.nodes[i]]; int(s.cards[i]) < len(dict) {
		e.Serial = gpu.Serial(dict[s.cards[i]])
	}
	rec := s.arena[s.offs[i]:s.offs[i+1]]
	flags := rec[0]
	job, n := binary.Varint(rec[1:])
	e.Job = console.JobID(job)
	p := 1 + n
	if flags&flagStruct != 0 {
		e.Structure = gpu.Structure(rec[p])
		e.StructureValid = true
		p++
	}
	if flags&flagPage != 0 {
		page, _ := binary.Uvarint(rec[p:])
		e.Page = int32(page)
	}
	return e
}

// grow makes room in dst for need more events: exactly need when dst
// has no spare capacity yet, so a popcount-sized scan allocates once,
// and at least doubling otherwise, so appending many segments in turn
// stays linear.
func grow(dst []console.Event, need int) []console.Event {
	if cap(dst)-len(dst) >= need {
		return dst
	}
	grown := make([]console.Event, len(dst), max(len(dst)+need, 2*cap(dst)))
	copy(grown, dst)
	return grown
}

// AppendEvents appends every event in append order to dst.
func (s *Segment) AppendEvents(dst []console.Event) []console.Event {
	dst = grow(dst, len(s.times))
	for i := range s.times {
		dst = append(dst, s.EventAt(i))
	}
	return dst
}

// ScanCode appends every event carrying code to dst, walking only the
// positions the code's bitmap marks.
func (s *Segment) ScanCode(code xid.Code, dst []console.Event) []console.Event {
	cb := s.findCode(code)
	if cb == nil {
		return dst
	}
	dst = grow(dst, cb.bits.count())
	cb.bits.forEach(func(i int) bool {
		dst = append(dst, s.EventAt(i))
		return true
	})
	return dst
}

// MemBytes estimates the resident heap footprint of the segment. For a
// mapped segment the columns and arena alias the page cache, not the
// heap, so only the dictionary and bitmaps count.
func (s *Segment) MemBytes() int64 {
	var n int64
	if s.unmap == nil {
		n = int64(len(s.times))*8 + int64(len(s.codes))*2 + int64(len(s.nodes))*4 +
			int64(len(s.cards)) + int64(len(s.offs))*4 + int64(len(s.arena))
	}
	for _, dict := range s.serials {
		n += 8 + int64(len(dict))*4
	}
	for _, cb := range s.byCode {
		n += 2 + int64(len(cb.bits.words))*8
	}
	return n
}
