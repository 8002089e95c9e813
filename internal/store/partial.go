package store

import "sort"

// Raw partial aggregates — the cross-replica face of the accumulators.
//
// A rendered RollupDoc or TopDoc cannot be merged: rendering collapses
// the numeric keys into display strings and (for Top) truncates to K.
// When a router fans a query out to N replicas, each replica must
// instead return its accumulator's raw state, and the router folds
// those with the same commutative/associative kernels the
// segment-parallel scan uses — replicas and segments are the same
// merge problem. Partial is that state: numeric, canonically sorted and
// JSON-round-trippable. Folded into an empty accumulator of the same
// spec, the partials of disjoint row owners render byte-identically to
// one accumulator that saw every row.

// RollupPartialCell is one raw rollup cell: the group-by coordinates
// exactly as the accumulator keys them, plus the count.
type RollupPartialCell struct {
	Bucket int64 `json:"bucket"`
	Code   int16 `json:"code,omitempty"`
	Cab    int16 `json:"cab,omitempty"`
	Cage   int8  `json:"cage,omitempty"`
	Node   int32 `json:"node,omitempty"`
	Count  int64 `json:"count"`
}

// TopPartialAgg is one raw offender aggregate.
type TopPartialAgg struct {
	Key    uint64          `json:"key"`
	Count  int64           `json:"count"`
	First  int64           `json:"first"`
	Last   int64           `json:"last"`
	ByCode map[int16]int64 `json:"by_code,omitempty"`
}

// Partial is an accumulator's raw state: a Rollup fills Cells, a Top
// fills Aggs. Unlike TopDoc it carries every key, not the top K —
// ranking truncation is only valid after the global merge.
type Partial struct {
	Total int64               `json:"total"`
	Cells []RollupPartialCell `json:"cells,omitempty"`
	Aggs  []TopPartialAgg     `json:"aggs,omitempty"`
}

// Partial exports the accumulator's raw cells, canonically sorted.
func (r *Rollup) Partial() Partial {
	p := Partial{Total: r.total, Cells: make([]RollupPartialCell, 0, len(r.cells))}
	for k, v := range r.cells {
		p.Cells = append(p.Cells, RollupPartialCell{Bucket: k.bucket, Code: k.code, Cab: k.cab, Cage: k.cage, Node: k.node, Count: v})
	}
	sort.Slice(p.Cells, func(i, j int) bool {
		a, b := p.Cells[i], p.Cells[j]
		if a.Bucket != b.Bucket {
			return a.Bucket < b.Bucket
		}
		if a.Code != b.Code {
			return a.Code < b.Code
		}
		if a.Cab != b.Cab {
			return a.Cab < b.Cab
		}
		if a.Cage != b.Cage {
			return a.Cage < b.Cage
		}
		return a.Node < b.Node
	})
	return p
}

// AddPartial folds another row owner's rollup cells in.
func (r *Rollup) AddPartial(p Partial) {
	for _, c := range p.Cells {
		r.cells[rollupKey{bucket: c.Bucket, code: c.Code, cab: c.Cab, cage: c.Cage, node: c.Node}] += c.Count
	}
	r.total += p.Total
}

// Partial exports the accumulator's raw aggregates, sorted by key.
func (t *Top) Partial() Partial {
	p := Partial{Total: t.total, Aggs: make([]TopPartialAgg, 0, len(t.aggs))}
	for key, agg := range t.aggs {
		pa := TopPartialAgg{Key: key, Count: agg.count, First: agg.first, Last: agg.last}
		if len(agg.byCode) > 0 {
			pa.ByCode = agg.byCode
		}
		p.Aggs = append(p.Aggs, pa)
	}
	sort.Slice(p.Aggs, func(i, j int) bool { return p.Aggs[i].Key < p.Aggs[j].Key })
	return p
}

// AddPartial folds another row owner's offender aggregates in.
func (t *Top) AddPartial(p Partial) {
	for _, pa := range p.Aggs {
		t.fold(pa.Key, pa.Count, pa.First, pa.Last, pa.ByCode)
	}
	t.total += p.Total
}
