package serve

import (
	"bytes"
	"io"
	"net/http"
	"net/url"
	"sync"
	"testing"
	"time"

	"titanre/internal/console"
	"titanre/internal/store"
	"titanre/internal/titanql"
	"titanre/internal/xid"
)

func queryURL(base, q string) string {
	return base + "/query?" + url.Values{"q": {q}}.Encode()
}

// exprQueries is the endpoint's equivalence mix: every predicate kind,
// both plan shapes, ranked and unranked.
var exprQueries = []string{
	"* | by code | bucket 1h",
	"code=48 cabinet=c3-* | by cage | bucket 6h | top 5",
	"code=13,31 code!=31 | by cabinet | bucket 1d",
	"cage=2 | bucket 12h",
	"node=c?-1* | top node 10",
	"code=sbe | top serial 5",
	"* | top code 0",
}

// TestQueryEndpointMatchesNaive: GET /query over a streamed, partially
// compacted month answers byte-identically to the naive titanql fold
// (materialize, filter event-by-event, aggregate) over the same stream.
func TestQueryEndpointMatchesNaive(t *testing.T) {
	events := simEvents()
	log := encodeLog(t, events)
	s, base, want := queryServer(t, log)
	if _, err := s.compact(48*time.Hour, 1); err != nil {
		t.Fatalf("compact: %v", err)
	}
	if st := s.StatsNow(); st.SealedEvents == 0 || st.RetainedEvents == 0 {
		t.Fatalf("want a sealed+retained split, got sealed=%d retained=%d", st.SealedEvents, st.RetainedEvents)
	}

	for _, q := range exprQueries {
		plan, err := titanql.Parse(q)
		if err != nil {
			t.Fatalf("Parse(%q): %v", q, err)
		}
		c, err := plan.Compile()
		if err != nil {
			t.Fatalf("Compile(%q): %v", q, err)
		}
		body := getBody(t, queryURL(base, q))
		if !bytes.Equal(body, renderJSON(t, c.ExecuteEvents(want))) {
			t.Fatalf("GET /query?q=%s diverges from the naive fold over the same stream", q)
		}
	}

	// The response echoes the canonical spelling.
	var doc titanql.Doc
	getJSON(t, queryURL(base, "code=31,13,13 | top 2 | by code"), &doc)
	if doc.Query != "code=13,31 | by code | bucket 1h | top 2" {
		t.Fatalf("canonical echo: %q", doc.Query)
	}
	if doc.RankedTop != 2 || len(doc.Rollup.Cells) > 2 {
		t.Fatalf("ranked doc: RankedTop=%d cells=%d", doc.RankedTop, len(doc.Rollup.Cells))
	}

	before := s.StatsNow()
	for _, q := range []string{"", "frob=1", "* | by blade", "cage=9", "node=c[3-"} {
		if got := getStatus(t, queryURL(base, q)); got != http.StatusBadRequest {
			t.Fatalf("bad query %q: got %d, want 400", q, got)
		}
	}
	after := s.StatsNow()
	if after.QueryErrors != before.QueryErrors+5 {
		t.Fatalf("query_errors moved %d -> %d, want +5", before.QueryErrors, after.QueryErrors)
	}
	if after.Queries <= before.Queries {
		t.Fatal("queries counter never moved")
	}
	metrics := string(getBody(t, base+"/metrics"))
	for _, want := range []string{"titand_queries_total", "titand_query_errors_total"} {
		if !bytes.Contains([]byte(metrics), []byte(want)) {
			t.Fatalf("/metrics missing %s", want)
		}
	}
}

// TestRollupWhereParams: the /rollup and /top location filters
// (?cabinet=, ?cage=, ?node=) go through the same titanql lowering and
// matcher as /query, so the filtered rollup or ranking byte-matches the
// batch kernel over the matcher-filtered stream.
func TestRollupWhereParams(t *testing.T) {
	events := simEvents()
	log := encodeLog(t, events)
	s, base, want := queryServer(t, log)
	if _, err := s.compact(48*time.Hour, 1); err != nil {
		t.Fatalf("compact: %v", err)
	}

	rollup := func(spec store.RollupSpec) func([]console.Event) (any, error) {
		return func(ev []console.Event) (any, error) { return store.RollupEvents(ev, spec) }
	}
	top := func(spec store.TopSpec) func([]console.Event) (any, error) {
		return func(ev []console.Event) (any, error) { return store.TopEvents(ev, spec) }
	}
	cases := []struct {
		query string
		pred  store.Predicate
		ref   func([]console.Event) (any, error)
	}{
		{"/rollup?by=cage&bucket=6h&cabinet=c3-*", store.Predicate{Cabinet: "c3-*", Cage: -1}, rollup(store.RollupSpec{ByCage: true, Bucket: 6 * time.Hour})},
		{"/rollup?by=code&bucket=1h&cage=2", store.Predicate{Cage: 2}, rollup(store.RollupSpec{ByCode: true, Bucket: time.Hour})},
		{"/rollup?by=node&bucket=24h&node=c?-1c2s*", store.Predicate{Node: "c?-1c2s*", Cage: -1}, rollup(store.RollupSpec{ByNode: true, Bucket: 24 * time.Hour})},
		{"/rollup?bucket=12h&code=48&cabinet=c*-0&cage=0", store.Predicate{Cabinet: "c*-0", Cage: 0}, rollup(store.RollupSpec{Bucket: 12 * time.Hour, FilterCode: true, Code: 48})},
		{"/top?by=node&cabinet=c3-*", store.Predicate{Cabinet: "c3-*", Cage: -1}, top(store.TopSpec{By: store.TopByNode, K: 20})},
		{"/top?by=serial&code=sbe&cage=2", store.Predicate{Cage: 2}, top(store.TopSpec{By: store.TopBySerial, K: 20, FilterCode: true, Code: xid.SingleBitError})},
	}
	for _, tc := range cases {
		m, err := tc.pred.Compile()
		if err != nil {
			t.Fatalf("%s: %v", tc.query, err)
		}
		var kept int64
		filtered := want[:0:0]
		for _, ev := range want {
			if m.MatchEvent(ev) {
				filtered = append(filtered, ev)
				kept++
			}
		}
		if kept == 0 || kept == int64(len(want)) {
			t.Fatalf("%s: predicate kept %d of %d events — not a discriminating case", tc.query, kept, len(want))
		}
		ref, err := tc.ref(filtered)
		if err != nil {
			t.Fatal(err)
		}
		body := getBody(t, base+tc.query)
		if !bytes.Equal(body, renderJSON(t, ref)) {
			t.Fatalf("GET %s diverges from the matcher-filtered batch fold", tc.query)
		}
	}

	for _, path := range []string{"/rollup", "/top"} {
		for _, q := range []string{"cage=9", "cage=x", "node=c[3-", "cabinet=c["} {
			if got := getStatus(t, base+path+"?"+q); got != http.StatusBadRequest {
				t.Fatalf("bad param %s?%s: got %d, want 400", path, q, got)
			}
		}
	}
	_ = s
}

// TestQueryExprConsistencyUnderCompaction hammers /query while
// compaction repeatedly seals chunks of the tail: every response must
// equal the uninterrupted-stream naive fold — the standing equivalence
// gate exercised live, across moving sealed/tail boundaries (run under
// -race by scripts/check.sh).
func TestQueryExprConsistencyUnderCompaction(t *testing.T) {
	events := simEvents()[:30000]
	log := encodeLog(t, events)
	s, base, want := queryServer(t, log)

	soak := []string{
		"code=48 cabinet=c3-* | by cage | bucket 6h | top 5",
		"* | by code | bucket 1h",
		"code=sbe | top serial 5",
	}
	refs := make(map[string][]byte, len(soak))
	for _, q := range soak {
		plan, err := titanql.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		c, err := plan.Compile()
		if err != nil {
			t.Fatal(err)
		}
		refs[q] = renderJSON(t, c.ExecuteEvents(want))
	}

	span := want[len(want)-1].Time.Sub(want[0].Time)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 8; i >= 0; i-- {
			if _, err := s.compact(span*time.Duration(i)/9, 1); err != nil {
				t.Errorf("compact: %v", err)
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; ; iter++ {
				select {
				case <-done:
					if iter > 0 {
						return
					}
					// One more full round against the all-sealed state.
				default:
				}
				for _, q := range soak {
					resp, err := http.Get(queryURL(base, q))
					if err != nil {
						t.Error(err)
						return
					}
					body, err := io.ReadAll(resp.Body)
					resp.Body.Close()
					if err != nil || resp.StatusCode != http.StatusOK {
						t.Errorf("query %q: status %d err %v", q, resp.StatusCode, err)
						return
					}
					if !bytes.Equal(body, refs[q]) {
						t.Errorf("query %q diverged mid-compaction", q)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	<-done

	if st := s.StatsNow(); st.SealedEvents == 0 {
		t.Fatal("compactor sealed nothing")
	}
	for _, q := range soak {
		if body := getBody(t, queryURL(base, q)); !bytes.Equal(body, refs[q]) {
			t.Fatalf("query %q diverged after full compaction", q)
		}
	}
}
