package titanql_test

import (
	"bytes"
	"encoding/json"
	"net/url"
	"strings"
	"testing"

	"titanre/internal/store"
	"titanre/internal/titanql"
)

// FuzzTitanQLParse is the differential parser fuzzer: Parse never
// panics on any input, and every accepted query round-trips — its
// canonical String() re-parses to a plan that renders the identical
// string (String∘Parse is a fixed point after one step).
func FuzzTitanQLParse(f *testing.F) {
	for _, q := range []string{
		"*",
		"code=48 cabinet=c3-* since=2014-01-01 | by cage | bucket 6h | top 5",
		"code=13,31 code!=sbe | by code,cabinet | bucket 1d",
		"node=c?-1c2s* cage=2 | top serial 10",
		"* | top node",
		"until=2015-06-01T12:30:00Z | bucket 90m | top 1",
		"code=otb|by node|bucket 2h",
		"* | by code | by cage",
		"!= = | |",
		"code==13",
	} {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, q string) {
		p, err := titanql.Parse(q)
		if err != nil {
			return
		}
		canon := p.String()
		again, err := titanql.Parse(canon)
		if err != nil {
			t.Fatalf("Parse(%q) ok but canonical %q fails to re-parse: %v", q, canon, err)
		}
		if got := again.String(); got != canon {
			t.Fatalf("Parse(%q): canonical %q re-renders as %q", q, canon, got)
		}
	})
}

// FuzzTitanQLEquivalence is the plan-equivalence fuzzer: any query that
// parses (or, spelled "/rollup?…" or "/top?…", lowers through FromURL)
// and compiles must execute byte-identically on every path — the
// segment-parallel bitmap scan over the sealed/tail snapshot, the
// cluster path (the snapshot split across two or three disjoint owners,
// each owner's ExecutePartial round-tripped through JSON, then
// MergePartials), and the naive event-by-event fold over the
// materialized stream.
func FuzzTitanQLEquivalence(f *testing.F) {
	for _, q := range []string{
		"* | by code | bucket 1h",
		"code=48 cabinet=c3-* | by cage | bucket 6h | top 5",
		"code=13,31 code!=31 cage=1 | by cabinet | bucket 12h",
		"node=c3-* | top node 5",
		"code=sbe | top serial 3",
		"since=2014-01-02 until=2014-01-05 | by code,cage | bucket 1d",
		"/rollup?by=code,cabinet&bucket=6h&code=48&cabinet=c3-*",
		"/top?by=serial&code=sbe&cage=2&k=5",
	} {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, q string) {
		plan, err := planOf(q)
		if err != nil {
			return
		}
		c, err := plan.Compile()
		if err != nil {
			return // bad glob, cage, bucket or dimension — rejected at compile, fine
		}
		fx := qlFixture()
		want := docJSON(t, c.ExecuteEvents(fx.all))
		if got := docJSON(t, c.Execute(fx.segs, fx.tail, 3)); !bytes.Equal(got, want) {
			t.Fatalf("query %q: compiled plan diverges from naive fold\ngot:  %s\nwant: %s", q, got, want)
		}
		owners := 2 + len(q)%2
		parts := make([]titanql.Partial, owners)
		for o := range parts {
			var segs []*store.Segment
			for i := o; i < len(fx.segs); i += owners {
				segs = append(segs, fx.segs[i])
			}
			tail := fx.tail[o*len(fx.tail)/owners : (o+1)*len(fx.tail)/owners]
			wire, err := json.Marshal(c.ExecutePartial(segs, tail, 1))
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(wire, &parts[o]); err != nil {
				t.Fatalf("query %q: partial does not round-trip: %v", q, err)
			}
		}
		merged, err := titanql.MergePartials(parts)
		if err != nil {
			t.Fatalf("query %q: MergePartials: %v", q, err)
		}
		if got := docJSON(t, merged); !bytes.Equal(got, want) {
			t.Fatalf("query %q: merged partials diverge from naive fold\ngot:  %s\nwant: %s", q, got, want)
		}
	})
}

// planOf parses a titanql expression, or lowers a "/rollup?…" or
// "/top?…" URL through FromURL.
func planOf(q string) (*titanql.Plan, error) {
	for prefix, kind := range map[string]titanql.Kind{"/rollup?": titanql.KindRollup, "/top?": titanql.KindTop} {
		if rest, ok := strings.CutPrefix(q, prefix); ok {
			v, err := url.ParseQuery(rest)
			if err != nil {
				return nil, err
			}
			return titanql.FromURL(kind, v)
		}
	}
	return titanql.Parse(q)
}

// docJSON renders both the whole document and the body an endpoint
// serves, so a lost URL form shows as a diff.
func docJSON(t *testing.T, d titanql.Doc) []byte {
	t.Helper()
	b, err := json.Marshal([]any{d, d.Body()})
	if err != nil {
		t.Fatal(err)
	}
	return b
}
