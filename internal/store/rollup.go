package store

import (
	"fmt"
	"sort"
	"time"

	"titanre/internal/console"
	"titanre/internal/topology"
	"titanre/internal/xid"
)

// Time-bucketed rollups — the paper's fleet-wide aggregates (events per
// hour by code, per-cabinet heatmaps) computed by streaming the time /
// code / node columns directly, never materializing console.Event
// values. The same addRow kernel also runs over []console.Event, which
// is both how the retained tail joins the sealed segments and the
// independent batch reference the equivalence tests compare against.

// RollupSpec describes one rollup: which dimensions to group by, the
// bucket width, and optional code/time filters. Zero times mean
// unbounded; bounds are inclusive. The filters act only in
// RollupEvents; the scan driver takes its filter as a Matcher.
type RollupSpec struct {
	ByCode    bool
	ByCabinet bool
	ByCage    bool
	ByNode    bool

	// Bucket is the time-bucket width; events land in the bucket
	// floor(t/Bucket)*Bucket. Must be a positive whole number of
	// seconds (the store's native resolution).
	Bucket time.Duration

	// FilterCode restricts the rollup to Code, which the rendered
	// document echoes as its "code" field.
	FilterCode bool
	Code       xid.Code

	Since, Until time.Time
}

func (spec RollupSpec) validate() error {
	if spec.Bucket < time.Second {
		return fmt.Errorf("store: rollup bucket %v must be at least 1s", spec.Bucket)
	}
	if spec.Bucket%time.Second != 0 {
		return fmt.Errorf("store: rollup bucket %v must be whole seconds", spec.Bucket)
	}
	return nil
}

// rollupKey is one cell's group-by coordinates; unused dimensions stay
// at their zero value so the key is comparable and compact.
type rollupKey struct {
	bucket int64 // epoch seconds, bucket start
	code   int16
	cab    int16
	cage   int8
	node   int32
}

// Rollup accumulates bucketed counts. Fill it with Scan, then render
// with Doc.
type Rollup struct {
	spec  RollupSpec
	bs    int64 // bucket width, seconds
	cells map[rollupKey]int64
	total int64
}

// NewRollup validates spec and returns an empty accumulator.
func NewRollup(spec RollupSpec) (*Rollup, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	return &Rollup{spec: spec, bs: int64(spec.Bucket / time.Second), cells: make(map[rollupKey]int64)}, nil
}

// addRow is the shared kernel: one event as raw columns.
func (r *Rollup) addRow(sec int64, code int16, node uint32) {
	bucket := sec / r.bs
	if sec < 0 && sec%r.bs != 0 {
		bucket-- // floor, not truncate, for pre-epoch times
	}
	var key rollupKey
	key.bucket = bucket * r.bs
	if r.spec.ByCode {
		key.code = code
	}
	if r.spec.ByCabinet {
		key.cab = int16(node / topology.NodesPerCabinet)
	}
	if r.spec.ByCage {
		key.cage = int8(node / topology.NodesPerCage % topology.CagesPerCabinet)
	}
	if r.spec.ByNode {
		key.node = int32(node)
	}
	r.cells[key]++
	r.total++
}

func (r *Rollup) addSegment(s *Segment, rows bitmap, all bool) {
	if all {
		for i, t := range s.times {
			r.addRow(t, int16(s.codes[i]), s.nodes[i])
		}
		return
	}
	rows.forEach(func(i int) bool {
		r.addRow(s.times[i], int16(s.codes[i]), s.nodes[i])
		return true
	})
}

func (r *Rollup) addEvent(e console.Event) {
	r.addRow(e.Time.Unix(), int16(e.Code), uint32(e.Node))
}

func (r *Rollup) fresh() Acc {
	return &Rollup{spec: r.spec, bs: r.bs, cells: make(map[rollupKey]int64)}
}

// merge adds o's cells. Cell addition is commutative and associative,
// so merging per-worker partials in any order renders the identical
// document.
func (r *Rollup) merge(o Acc) {
	or := o.(*Rollup)
	for k, v := range or.cells {
		r.cells[k] += v
	}
	r.total += or.total
}

// RollupCell is one rendered cell. Only the grouped dimensions are
// present; Count is the number of events in the cell.
type RollupCell struct {
	Bucket  time.Time `json:"bucket"`
	Code    string    `json:"code,omitempty"`
	Cabinet *int      `json:"cabinet,omitempty"`
	Cage    *int      `json:"cage,omitempty"`
	Node    string    `json:"node,omitempty"`
	Count   int64     `json:"count"`
}

// RollupDoc is the rendered rollup: the spec echoed back plus the
// cells, sorted by (bucket, code, cabinet, cage, node) for a canonical
// byte representation.
type RollupDoc struct {
	By            []string     `json:"by"`
	BucketSeconds int64        `json:"bucket_seconds"`
	Code          string       `json:"code,omitempty"`
	TotalEvents   int64        `json:"total_events"`
	Cells         []RollupCell `json:"cells"`
}

// Doc renders the accumulated rollup deterministically: two rollups fed
// the same events in any order and any segment/tail split render
// byte-identical documents.
func (r *Rollup) Doc() RollupDoc {
	keys := make([]rollupKey, 0, len(r.cells))
	for k := range r.cells {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.bucket != b.bucket {
			return a.bucket < b.bucket
		}
		if a.code != b.code {
			return a.code < b.code
		}
		if a.cab != b.cab {
			return a.cab < b.cab
		}
		if a.cage != b.cage {
			return a.cage < b.cage
		}
		return a.node < b.node
	})
	doc := RollupDoc{
		By:            make([]string, 0, 4),
		BucketSeconds: r.bs,
		TotalEvents:   r.total,
		Cells:         make([]RollupCell, 0, len(keys)),
	}
	if r.spec.ByCode {
		doc.By = append(doc.By, "code")
	}
	if r.spec.ByCabinet {
		doc.By = append(doc.By, "cabinet")
	}
	if r.spec.ByCage {
		doc.By = append(doc.By, "cage")
	}
	if r.spec.ByNode {
		doc.By = append(doc.By, "node")
	}
	if r.spec.FilterCode {
		doc.Code = r.spec.Code.String()
	}
	for _, k := range keys {
		cell := RollupCell{
			Bucket: time.Unix(k.bucket, 0).UTC(),
			Count:  r.cells[k],
		}
		if r.spec.ByCode {
			cell.Code = xid.Code(k.code).String()
		}
		if r.spec.ByCabinet {
			cab := int(k.cab)
			cell.Cabinet = &cab
		}
		if r.spec.ByCage {
			cage := int(k.cage)
			cell.Cage = &cage
		}
		if r.spec.ByNode {
			cell.Node = topology.CNameOf(topology.NodeID(k.node))
		}
		doc.Cells = append(doc.Cells, cell)
	}
	return doc
}

// RollupEvents folds materialized events, filtered by the spec's own
// code and time fields — the batch-pipeline reference the equivalence
// tests compare the streamed answer against.
func RollupEvents(events []console.Event, spec RollupSpec) (RollupDoc, error) {
	r, err := NewRollup(spec)
	if err != nil {
		return RollupDoc{}, err
	}
	Scan(nil, events, specMatcher(spec.FilterCode, spec.Code, spec.Since, spec.Until), r, 1)
	return r.Doc(), nil
}

// specMatcher lowers a spec's FilterCode, Code, Since and Until onto a
// matcher — the one place those fields filter rows. Past it they only
// echo "code" in the rendered document.
func specMatcher(filterCode bool, code xid.Code, since, until time.Time) *Matcher {
	p := Predicate{Cage: -1, Since: since, Until: until}
	if filterCode {
		p.Codes = []xid.Code{code}
	}
	m, _ := p.Compile() // no glob and no cage: Compile cannot fail
	return m
}
