package serve

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"titanre/internal/console"
	"titanre/internal/store"
	"titanre/internal/titanql"
	"titanre/internal/topology"
	"titanre/internal/xid"
)

// The fleet-wide query endpoints — the paper's aggregate artifacts
// (events/hour by code, per-cabinet heatmaps, top-offender lists)
// served live off the columnar store:
//
//	GET /codes/{xid}/history?since=&until=&limit=
//	GET /rollup?by=code,cabinet&bucket=1h&code=&cabinet=&cage=&node=&since=&until=
//	GET /top?k=20&by=node|serial|code&code=&cabinet=&cage=&node=&since=&until=
//	GET /query?q=<titanql expression>
//
// /rollup and /top lower their parameters onto a titanql plan
// (titanql.FromURL), so all three aggregate endpoints are one query
// path: compile, then scan one consistent (sealed segments, retained
// tail) snapshot via historyView with store.Scan — segment columns
// streamed without materializing events, the retained tail folded
// through the identical kernel — so their answers byte-match the batch
// core pipeline computing the same aggregate over the same stream.

// CodeHistoryEvent is one event in a fleet-wide code history.
type CodeHistoryEvent struct {
	Time   time.Time `json:"time"`
	Node   string    `json:"node"`
	Serial string    `json:"serial,omitempty"`
	Page   int32     `json:"page"`
	Job    int64     `json:"job,omitempty"`
}

// CodeHistory is the GET /codes/{xid}/history document.
type CodeHistory struct {
	Code      string             `json:"code"`
	Sealed    int                `json:"sealed_events"`
	Retained  int                `json:"retained_events"`
	Truncated bool               `json:"truncated,omitempty"`
	Events    []CodeHistoryEvent `json:"events"`
}

// handleCodeHistory serves every event carrying one code, fleet-wide:
// sealed segments are pruned by their min/max time and walked through
// the code's per-segment bitmap (only marked positions are touched),
// then the retained tail is appended from the same consistent snapshot.
// Arrival order is preserved — tail strictly follows sealed history.
// Optional ?since=/?until= bound the range; ?limit=N caps the response
// (truncated flag set when it bites).
func (s *Server) handleCodeHistory(w http.ResponseWriter, r *http.Request) {
	code, err := titanql.ParseCode(r.PathValue("xid"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	m, ok := historyMatcher(w, r, store.Predicate{Codes: []xid.Code{code}, Cage: -1})
	if !ok {
		return
	}
	limit := -1
	if v := r.URL.Query().Get("limit"); v != "" {
		if limit, err = strconv.Atoi(v); err != nil || limit < 0 {
			http.Error(w, fmt.Sprintf("bad limit %q", v), http.StatusBadRequest)
			return
		}
	}
	s.metrics.queryCodeHistory.Add(1)

	events, sealed := s.scanHistory(m)
	hist := CodeHistory{Code: code.String(), Sealed: sealed, Retained: len(events) - sealed}
	if limit >= 0 && len(events) > limit {
		events = events[:limit]
		hist.Truncated = true
	}
	hist.Events = make([]CodeHistoryEvent, 0, len(events))
	for _, ev := range events {
		he := CodeHistoryEvent{
			Time: ev.Time,
			Node: topology.CNameOf(ev.Node),
			Page: ev.Page,
			Job:  int64(ev.Job),
		}
		if ev.Serial != 0 {
			he.Serial = ev.Serial.String()
		}
		hist.Events = append(hist.Events, he)
	}
	writeJSON(w, hist)
}

// historyMatcher bounds p by the optional ?since= / ?until= parameters
// (decoded by titanql.SetPred, as every query surface does) and
// compiles it, reporting ok=false after writing the 400.
func historyMatcher(w http.ResponseWriter, r *http.Request, p store.Predicate) (*store.Matcher, bool) {
	for _, key := range []string{"since", "until"} {
		if v := r.URL.Query().Get(key); v != "" {
			if err := titanql.SetPred(&p, key, v, false); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return nil, false
			}
		}
	}
	m, err := p.Compile()
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return nil, false
	}
	return m, true
}

// scanHistory returns every event m matches from one consistent
// snapshot (historyView), in arrival order — sealed segments first,
// walked only at the positions their predicate bitmaps mark, then the
// retained tail — and how many of them came from sealed segments. The
// tail is never re-sorted: sorting second-resolution timestamps would
// diverge same-second order from what warm restart and snapshots serve.
func (s *Server) scanHistory(m *store.Matcher) ([]console.Event, int) {
	segs, tail := s.historyView()
	var events []console.Event
	for _, seg := range segs {
		events = seg.ScanWhere(m, events)
	}
	sealed := len(events)
	for _, ev := range tail {
		if m.MatchEvent(ev) {
			events = append(events, ev)
		}
	}
	return events, sealed
}

// handleRollup serves time-bucketed fleet-wide counts — the paper's
// Fig 3 (events/hour by code) and Fig 12 (per-cabinet density) as live
// JSON. ?by= is a comma list of code, cabinet, cage, node (empty = a
// pure time series); ?bucket= is a duration ≥ 1s (default 1h); ?code=
// filters to one code (echoed in the body); ?node=, ?cabinet=, ?cage=,
// ?since= and ?until= filter as their titanql predicates do. Cells are
// sorted canonically, so the body is byte-stable for a given history.
func (s *Server) handleRollup(w http.ResponseWriter, r *http.Request) {
	plan, err := titanql.FromURL(titanql.KindRollup, r.URL.Query())
	if s.servePlan(w, r, plan, err) {
		s.metrics.queryRollup.Add(1)
	}
}

// handleTop serves offender cards ranked by event count — the paper's
// "a handful of cards produce almost all the SBEs" lists, counted
// straight off per-code bitmaps. ?by= is node (default), serial or
// code; ?k= caps the ranking (default 20, 0 = all); the filters are
// /rollup's.
func (s *Server) handleTop(w http.ResponseWriter, r *http.Request) {
	plan, err := titanql.FromURL(titanql.KindTop, r.URL.Query())
	if s.servePlan(w, r, plan, err) {
		s.metrics.queryTop.Add(1)
	}
}

// handleQuery serves one composed titanql plan — filter × group ×
// bucket × rank in a single expression:
//
//	GET /query?q=code=48 cabinet=c3-* | by cage | bucket 6h | top 5
//
// The response carries the canonical query spelling and is
// byte-identical at any worker count.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	s.metrics.queries.Add(1)
	var plan *titanql.Plan
	err := errors.New("missing q: want /query?q=<titanql expression>")
	if q := r.URL.Query().Get("q"); q != "" {
		plan, err = titanql.Parse(q)
	}
	if !s.servePlan(w, r, plan, err) {
		s.metrics.queryErrors.Add(1)
	}
}

// servePlan compiles a lowered plan (err is the lowering's) and runs it
// segment-parallel over one consistent snapshot. It writes the raw
// titanql.Partial when the caller asks for ?partial=1 — the replica
// half of a titanrouter merge — and the endpoint's document otherwise,
// reporting false after writing the 400 for a plan that failed to lower
// or compile.
func (s *Server) servePlan(w http.ResponseWriter, r *http.Request, plan *titanql.Plan, err error) bool {
	var c *titanql.Compiled
	if err == nil {
		c, err = plan.Compile()
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return false
	}
	segs, tail := s.historyView()
	if r.URL.Query().Get("partial") == "1" {
		writeJSON(w, c.ExecutePartial(segs, tail, 0))
	} else {
		writeJSON(w, c.Execute(segs, tail, 0).Body())
	}
	return true
}
