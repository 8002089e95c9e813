// Package titanql is the composable query language over the event
// store — the paper's analysis questions ("DBEs per cage on the c3
// column, 6-hour buckets, worst five cells") as one-line expressions:
//
//	code=48 cabinet=c3-* since=2014-01-01 | by cage | bucket 6h | top 5
//
// A query is a filter followed by pipeline stages. The filter is a
// conjunction of predicates (code=, code!=, node=, cabinet=, cage=,
// since=, until=; `*` means everything); the stages shape the answer:
//
//	by code,cabinet,cage,node   group cells by dimensions
//	bucket 6h                   time-bucket width (default 1h; Nd = days)
//	top 5                       keep the 5 highest-count cells (rollup)
//	top node|serial|code [K]    offender ranking instead of a rollup
//
// Parse builds a typed Plan whose String() is the canonical spelling
// (sorted code lists, fixed predicate and stage order, RFC3339 UTC
// times) — Parse∘String is the identity on canonical queries, the
// round-trip property the parser fuzzer holds. FromURL lowers the
// /rollup and /top URL parameters onto the same Plan, so the three read
// endpoints are one query path. Compile lowers the plan onto the store
// kernels: the filter becomes a store.Matcher (per-code bitmaps
// intersected with node-mask and time-range bitmaps inside sealed
// segments), the stages a Rollup or Top accumulator, and Execute runs
// them through the segment-parallel store.Scan. ExecuteEvents is the
// deliberately naive reference — materialize, filter event-by-event,
// fold — that every compiled plan must byte-match.
package titanql

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"titanre/internal/store"
	"titanre/internal/xid"
)

// Kind says what a plan produces: a grouped rollup or an offender
// ranking.
type Kind int

const (
	KindRollup Kind = iota
	KindTop
)

// Plan is one parsed query. Filter applies to both kinds; the By*/
// Bucket/RankK fields shape a rollup, TopBy/TopK an offender ranking.
type Plan struct {
	Filter store.Predicate
	Kind   Kind

	// Rollup shape: group-by dimensions, bucket width, and an optional
	// cell ranking (RankK > 0 keeps only the RankK highest-count cells).
	ByCode    bool
	ByCabinet bool
	ByCage    bool
	ByNode    bool
	Bucket    time.Duration
	RankK     int

	// Offender shape (Kind == KindTop): dimension and card count
	// (TopK <= 0 means every key).
	TopBy store.TopBy
	TopK  int

	// URLForm marks a plan lowered from /rollup or /top parameters
	// (FromURL): its code filter is echoed as the rendered document's
	// "code" field, and the endpoint serves the bare RollupDoc or
	// TopDoc (Doc.Body). String does not spell it.
	URLForm bool
}

// String renders the canonical spelling: predicates in fixed order with
// sorted, deduplicated code lists and RFC3339 UTC times, then stages in
// by, bucket, top order with defaults spelled out. Parsing the result
// yields a plan that renders to the identical string.
func (p *Plan) String() string {
	var sb strings.Builder
	sb.WriteString(p.filterString())
	if p.Kind == KindTop {
		fmt.Fprintf(&sb, " | top %s %d", p.TopBy, p.TopK)
		return sb.String()
	}
	if dims := p.dimsString(); dims != "" {
		sb.WriteString(" | by ")
		sb.WriteString(dims)
	}
	sb.WriteString(" | bucket ")
	sb.WriteString(formatDur(p.Bucket))
	if p.RankK > 0 {
		fmt.Fprintf(&sb, " | top %d", p.RankK)
	}
	return sb.String()
}

func (p *Plan) filterString() string {
	var parts []string
	if len(p.Filter.Codes) > 0 {
		parts = append(parts, "code="+codeList(p.Filter.Codes))
	}
	if len(p.Filter.NotCodes) > 0 {
		parts = append(parts, "code!="+codeList(p.Filter.NotCodes))
	}
	if p.Filter.Node != "" {
		parts = append(parts, "node="+p.Filter.Node)
	}
	if p.Filter.Cabinet != "" {
		parts = append(parts, "cabinet="+p.Filter.Cabinet)
	}
	if p.Filter.Cage >= 0 {
		parts = append(parts, "cage="+strconv.Itoa(p.Filter.Cage))
	}
	if !p.Filter.Since.IsZero() {
		parts = append(parts, "since="+p.Filter.Since.UTC().Format(time.RFC3339))
	}
	if !p.Filter.Until.IsZero() {
		parts = append(parts, "until="+p.Filter.Until.UTC().Format(time.RFC3339))
	}
	if len(parts) == 0 {
		return "*"
	}
	return strings.Join(parts, " ")
}

func (p *Plan) dimsString() string {
	var dims []string
	if p.ByCode {
		dims = append(dims, "code")
	}
	if p.ByCabinet {
		dims = append(dims, "cabinet")
	}
	if p.ByCage {
		dims = append(dims, "cage")
	}
	if p.ByNode {
		dims = append(dims, "node")
	}
	return strings.Join(dims, ",")
}

// codeList renders a sorted, deduplicated code list. Plans built by
// Parse are already canonical; sorting here keeps hand-built plans
// honest too.
func codeList(codes []xid.Code) string {
	canon := canonCodes(codes)
	parts := make([]string, len(canon))
	for i, c := range canon {
		parts[i] = codeName(c)
	}
	return strings.Join(parts, ",")
}

// canonCodes sorts and deduplicates without mutating its argument.
func canonCodes(codes []xid.Code) []xid.Code {
	canon := append([]xid.Code(nil), codes...)
	sort.Slice(canon, func(i, j int) bool { return canon[i] < canon[j] })
	out := canon[:0]
	for i, c := range canon {
		if i == 0 || c != canon[i-1] {
			out = append(out, c)
		}
	}
	return out
}

// codeName spells a code the way queries write it: the conventional
// sbe/otb abbreviations for the paper's synthetic codes, the XID number
// otherwise.
func codeName(c xid.Code) string {
	switch c {
	case xid.SingleBitError:
		return "sbe"
	case xid.OffTheBus:
		return "otb"
	}
	return strconv.Itoa(int(c))
}

// formatDur renders a bucket width canonically: whole days as Nd, then
// the largest whole unit of h/m/s.
func formatDur(d time.Duration) string {
	switch {
	case d >= 24*time.Hour && d%(24*time.Hour) == 0:
		return strconv.FormatInt(int64(d/(24*time.Hour)), 10) + "d"
	case d >= time.Hour && d%time.Hour == 0:
		return strconv.FormatInt(int64(d/time.Hour), 10) + "h"
	case d >= time.Minute && d%time.Minute == 0:
		return strconv.FormatInt(int64(d/time.Minute), 10) + "m"
	default:
		return strconv.FormatInt(int64(d/time.Second), 10) + "s"
	}
}
