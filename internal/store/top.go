package store

import (
	"fmt"
	"time"

	"titanre/internal/console"
	"titanre/internal/gpu"
	"titanre/internal/stats"
	"titanre/internal/topology"
	"titanre/internal/xid"
)

// Top-K offender cards — the paper's "a handful of cards produce almost
// all the SBEs" lists, computed from segment columns and per-code
// bitmaps without materializing events, ranked by stats.TopOffenders
// (count descending, key ascending — deterministic).

// TopBy selects the offender dimension.
type TopBy string

const (
	TopByNode   TopBy = "node"
	TopBySerial TopBy = "serial"
	TopByCode   TopBy = "code"
)

// TopSpec describes one offender query. K ≤ 0 means every key. Zero
// times mean unbounded; bounds are inclusive. The filters act only in
// TopEvents; the scan driver takes its filter as a Matcher.
type TopSpec struct {
	By TopBy
	K  int

	// FilterCode counts only events carrying Code, which the rendered
	// document echoes as its "code" field.
	FilterCode bool
	Code       xid.Code

	Since, Until time.Time
}

func (spec TopSpec) validate() error {
	switch spec.By {
	case TopByNode, TopBySerial, TopByCode:
		return nil
	}
	return fmt.Errorf("store: top-k dimension %q (want node, serial or code)", spec.By)
}

// topAgg accumulates one offender's card.
type topAgg struct {
	count       int64
	first, last int64
	byCode      map[int16]int64
}

// Top accumulates offender counts; fill it with Scan, render with Doc.
type Top struct {
	spec  TopSpec
	aggs  map[uint64]*topAgg
	total int64
}

// NewTop validates spec and returns an empty accumulator.
func NewTop(spec TopSpec) (*Top, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	return &Top{spec: spec, aggs: make(map[uint64]*topAgg)}, nil
}

// addRow is the shared kernel: one event as raw columns.
func (t *Top) addRow(sec int64, code int16, node, serial uint32) {
	var key uint64
	switch t.spec.By {
	case TopByNode:
		key = uint64(node)
	case TopBySerial:
		key = uint64(serial)
	case TopByCode:
		key = uint64(uint16(code))
	}
	if agg := t.fold(key, 1, sec, sec, nil); agg.byCode != nil {
		agg.byCode[code]++
	}
	t.total++
}

// fold adds count events seen between first and last (and their
// per-code breakdown) to key's aggregate. Counts add, first/last take
// min/max, breakdowns add — all commutative and associative, so
// per-worker and per-replica partials merge to the identical ranking in
// any order.
func (t *Top) fold(key uint64, count, first, last int64, byCode map[int16]int64) *topAgg {
	agg := t.aggs[key]
	if agg == nil {
		agg = &topAgg{first: first, last: last}
		if t.spec.By != TopByCode {
			agg.byCode = make(map[int16]int64, len(byCode))
		}
		t.aggs[key] = agg
	}
	agg.count += count
	agg.first = min(agg.first, first)
	agg.last = max(agg.last, last)
	if agg.byCode != nil { // by=code keeps no breakdown, whatever a partial claims
		for code, n := range byCode {
			agg.byCode[code] += n
		}
	}
	return agg
}

// addCol folds row i of a sealed segment.
func (t *Top) addCol(s *Segment, i int) {
	var serial uint32
	if t.spec.By == TopBySerial {
		serial = s.serials[s.nodes[i]][s.cards[i]]
	}
	t.addRow(s.times[i], int16(s.codes[i]), s.nodes[i], serial)
}

func (t *Top) addSegment(s *Segment, rows bitmap, all bool) {
	if all {
		for i := range s.times {
			t.addCol(s, i)
		}
		return
	}
	rows.forEach(func(i int) bool {
		t.addCol(s, i)
		return true
	})
}

func (t *Top) addEvent(e console.Event) {
	t.addRow(e.Time.Unix(), int16(e.Code), uint32(e.Node), uint32(e.Serial))
}

func (t *Top) fresh() Acc {
	return &Top{spec: t.spec, aggs: make(map[uint64]*topAgg)}
}

func (t *Top) merge(o Acc) {
	ot := o.(*Top)
	for key, a := range ot.aggs {
		if t.aggs[key] == nil {
			t.aggs[key] = a // o is discarded: adopt its aggregate
			continue
		}
		t.fold(key, a.count, a.first, a.last, a.byCode)
	}
	t.total += ot.total
}

// TopCard is one rendered offender.
type TopCard struct {
	Node      string           `json:"node,omitempty"`
	Serial    string           `json:"serial,omitempty"`
	Code      string           `json:"code,omitempty"`
	Count     int64            `json:"count"`
	FirstSeen time.Time        `json:"first_seen"`
	LastSeen  time.Time        `json:"last_seen"`
	ByCode    map[string]int64 `json:"by_code,omitempty"`
}

// TopDoc is the rendered ranking.
type TopDoc struct {
	By          string    `json:"by"`
	K           int       `json:"k"`
	Code        string    `json:"code,omitempty"`
	TotalEvents int64     `json:"total_events"`
	Cards       []TopCard `json:"cards"`
}

// Doc ranks the accumulated offenders and renders the top K cards.
func (t *Top) Doc() TopDoc {
	counts := make(map[uint64]int64, len(t.aggs))
	for key, agg := range t.aggs {
		counts[key] = agg.count
	}
	k := t.spec.K
	if k <= 0 {
		k = len(counts)
	}
	doc := TopDoc{
		By:          string(t.spec.By),
		K:           k,
		TotalEvents: t.total,
		Cards:       make([]TopCard, 0, k),
	}
	if t.spec.FilterCode {
		doc.Code = t.spec.Code.String()
	}
	for _, kc := range stats.TopOffenders(counts, k) {
		agg := t.aggs[kc.Key]
		card := TopCard{
			Count:     agg.count,
			FirstSeen: time.Unix(agg.first, 0).UTC(),
			LastSeen:  time.Unix(agg.last, 0).UTC(),
		}
		switch t.spec.By {
		case TopByNode:
			card.Node = topology.CNameOf(topology.NodeID(kc.Key))
		case TopBySerial:
			card.Serial = gpu.Serial(kc.Key).String()
		case TopByCode:
			card.Code = xid.Code(int16(kc.Key)).String()
		}
		if agg.byCode != nil {
			card.ByCode = make(map[string]int64, len(agg.byCode))
			for code, n := range agg.byCode {
				card.ByCode[xid.Code(code).String()] = n
			}
		}
		doc.Cards = append(doc.Cards, card)
	}
	return doc
}

// TopEvents computes the identical ranking from materialized events,
// filtered by the spec's own code and time fields — the batch reference.
func TopEvents(events []console.Event, spec TopSpec) (TopDoc, error) {
	t, err := NewTop(spec)
	if err != nil {
		return TopDoc{}, err
	}
	Scan(nil, events, specMatcher(spec.FilterCode, spec.Code, spec.Since, spec.Until), t, 1)
	return t.Doc(), nil
}
