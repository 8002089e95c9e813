package titanql

import (
	"sort"

	"titanre/internal/console"
	"titanre/internal/store"
	"titanre/internal/xid"
)

// Compiling a plan lowers it onto the store kernels: the filter becomes
// one shared store.Matcher (inside sealed segments it evaluates to a
// position bitmap — stored per-code bitmaps unioned, then intersected
// word-wise with the node-mask and time-range bitmaps; over the
// retained tail it tests events one by one), and the stages become the
// Rollup or Top accumulator store.Scan folds rows into. Because partial
// accumulators merge commutatively and the final render sorts
// canonically, the document is byte-identical at any worker count —
// and byte-identical to ExecuteEvents, the naive materialized fold,
// which is the standing equivalence gate.

// Doc is one executed query. Exactly one of Rollup/Top is set,
// mirroring the plan kind; Query echoes the canonical spelling.
type Doc struct {
	Query     string           `json:"query"`
	RankedTop int              `json:"ranked_top,omitempty"`
	Rollup    *store.RollupDoc `json:"rollup,omitempty"`
	Top       *store.TopDoc    `json:"top,omitempty"`

	urlForm bool
}

// Body is the document an endpoint serves: the bare Rollup or Top for a
// plan lowered from /rollup or /top parameters, the whole Doc for a
// /query expression.
func (d Doc) Body() any {
	switch {
	case !d.urlForm:
		return d
	case d.Top != nil:
		return d.Top
	}
	return d.Rollup
}

// Compiled is a plan lowered onto the store kernels, shareable
// read-only across queries and workers.
type Compiled struct {
	plan    *Plan
	matcher *store.Matcher
}

// Compile validates the plan's filter (globs, cage range) and stages
// (bucket width, offender dimension) and lowers it.
func (p *Plan) Compile() (*Compiled, error) {
	m, err := p.Filter.Compile()
	if err != nil {
		return nil, err
	}
	if _, err := p.newAcc(); err != nil {
		return nil, err
	}
	return &Compiled{plan: p, matcher: m}, nil
}

// newAcc returns an empty accumulator shaped by the plan's stages. The
// filter never reaches it — the matcher alone selects rows — except as
// the URL form's "code" echo.
func (p *Plan) newAcc() (store.Acc, error) {
	echo := p.URLForm && len(p.Filter.Codes) == 1
	var code xid.Code
	if echo {
		code = p.Filter.Codes[0]
	}
	if p.Kind == KindTop {
		top, err := store.NewTop(store.TopSpec{By: p.TopBy, K: p.TopK, FilterCode: echo, Code: code})
		if err != nil {
			return nil, err
		}
		return top, nil
	}
	roll, err := store.NewRollup(store.RollupSpec{
		ByCode:     p.ByCode,
		ByCabinet:  p.ByCabinet,
		ByCage:     p.ByCage,
		ByNode:     p.ByNode,
		Bucket:     p.Bucket,
		FilterCode: echo,
		Code:       code,
	})
	if err != nil {
		return nil, err
	}
	return roll, nil
}

// render ranks and renders a filled accumulator as the plan's document,
// echoing query as its spelling.
func (p *Plan) render(query string, acc store.Acc) Doc {
	doc := Doc{Query: query, urlForm: p.URLForm}
	switch a := acc.(type) {
	case *store.Top:
		top := a.Doc()
		doc.Top = &top
	case *store.Rollup:
		roll := a.Doc()
		rankCells(&roll, p.RankK)
		doc.RankedTop = p.RankK
		doc.Rollup = &roll
	}
	return doc
}

// scan folds the rows of one consistent (sealed segments, retained
// tail) snapshot that the plan's filter matches, segment-parallel at
// the given worker count (<= 0 means GOMAXPROCS).
func (c *Compiled) scan(segs []*store.Segment, tail []console.Event, workers int) store.Acc {
	acc, _ := c.plan.newAcc() // Compile validated the stages
	store.Scan(segs, tail, c.matcher, acc, workers)
	return acc
}

// Execute runs the compiled plan over one consistent snapshot. The
// rendered document is byte-identical at any worker count and
// byte-identical to ExecuteEvents over the same stream.
func (c *Compiled) Execute(segs []*store.Segment, tail []console.Event, workers int) Doc {
	return c.plan.render(c.plan.String(), c.scan(segs, tail, workers))
}

// ExecuteEvents is the naive reference: materialize the whole stream,
// filter it event by event through the same matcher, fold what is kept
// unfiltered. Every compiled plan must byte-match it.
func (c *Compiled) ExecuteEvents(events []console.Event) Doc {
	kept := make([]console.Event, 0, len(events))
	for _, e := range events {
		if c.matcher.MatchEvent(e) {
			kept = append(kept, e)
		}
	}
	acc, _ := c.plan.newAcc() // Compile validated the stages
	store.Scan(nil, kept, nil, acc, 1)
	return c.plan.render(c.plan.String(), acc)
}

// rankCells keeps the k highest-count cells. The stable sort over the
// doc's canonical cell order makes ties deterministic, so ranked
// documents stay byte-identical across executions.
func rankCells(doc *store.RollupDoc, k int) {
	if k <= 0 {
		return
	}
	sort.SliceStable(doc.Cells, func(i, j int) bool {
		return doc.Cells[i].Count > doc.Cells[j].Count
	})
	if len(doc.Cells) > k {
		doc.Cells = doc.Cells[:k]
	}
}

// Run parses, compiles and executes q in one call — what the /query
// handler and titanreport -query both do.
func Run(q string, segs []*store.Segment, tail []console.Event, workers int) (Doc, error) {
	plan, err := Parse(q)
	if err != nil {
		return Doc{}, err
	}
	c, err := plan.Compile()
	if err != nil {
		return Doc{}, err
	}
	return c.Execute(segs, tail, workers), nil
}
