package titanql_test

import (
	"bytes"
	"encoding/json"
	"net/url"
	"os"
	"sync"
	"testing"
	"time"

	"titanre/internal/console"
	"titanre/internal/sim"
	"titanre/internal/store"
	"titanre/internal/titanql"
)

// TestParseCanonical: every accepted spelling renders to its canonical
// form, and the canonical form is a fixed point of Parse∘String.
func TestParseCanonical(t *testing.T) {
	cases := []struct{ in, want string }{
		{"*", "* | bucket 1h"},
		{"* | bucket 1h", "* | bucket 1h"},
		{"code=48 cabinet=c3-* since=2014-01-01 | by cage | bucket 6h | top 5",
			"code=48 cabinet=c3-* since=2014-01-01T00:00:00Z | by cage | bucket 6h | top 5"},
		{"code=31,13,13", "code=13,31 | bucket 1h"},
		{"code=-1,otb", "code=otb,sbe | bucket 1h"},
		{"code!=sbe code=48", "code=48 code!=sbe | bucket 1h"},
		{"  code = 13 |  by  node,code ", "code=13 | by code,node | bucket 1h"},
		{"* | by code, cage", "* | by code,cage | bucket 1h"},
		{"* | bucket 24h", "* | bucket 1d"},
		{"* | bucket 90m", "* | bucket 90m"},
		{"* | bucket 2d", "* | bucket 2d"},
		{"* | top node", "* | top node 20"},
		{"* | top serial 5", "* | top serial 5"},
		{"* | top code 0", "* | top code 0"},
		{"cage=2 until=2015-06-01T12:30:00Z", "cage=2 until=2015-06-01T12:30:00Z | bucket 1h"},
		{"since=2014-01-01T00:00:00+02:00", "since=2013-12-31T22:00:00Z | bucket 1h"},
		{"node=c?-1c2s* | top 3 | by node", "node=c?-1c2s* | by node | bucket 1h | top 3"},
	}
	for _, tc := range cases {
		p, err := titanql.Parse(tc.in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", tc.in, err)
		}
		if got := p.String(); got != tc.want {
			t.Fatalf("Parse(%q).String() = %q, want %q", tc.in, got, tc.want)
		}
		again, err := titanql.Parse(tc.want)
		if err != nil {
			t.Fatalf("re-Parse(%q): %v", tc.want, err)
		}
		if got := again.String(); got != tc.want {
			t.Fatalf("canonical %q re-renders as %q", tc.want, got)
		}
	}
}

// TestFromURL: the /rollup and /top parameters lower onto the plan the
// README's spelling table promises, and bad values fail to lower or
// compile.
func TestFromURL(t *testing.T) {
	cases := []struct {
		kind titanql.Kind
		in   string
		want string
	}{
		{titanql.KindRollup, "", "* | bucket 1h"},
		{titanql.KindRollup, "by=code,cabinet&bucket=24h", "* | by code,cabinet | bucket 1d"},
		{titanql.KindRollup, "by=node,%20code&code=sbe&cabinet=c3-*&cage=2&since=2014-01-01T00:00:00Z",
			"code=sbe cabinet=c3-* cage=2 since=2014-01-01T00:00:00Z | by code,node | bucket 1h"},
		{titanql.KindTop, "", "* | top node 20"},
		{titanql.KindTop, "by=serial&k=0&code=48&node=c3-2c1s4n2&bucket=6h",
			"code=48 node=c3-2c1s4n2 | top serial 0"},
	}
	for _, tc := range cases {
		v, err := url.ParseQuery(tc.in)
		if err != nil {
			t.Fatal(err)
		}
		p, err := titanql.FromURL(tc.kind, v)
		if err != nil {
			t.Fatalf("FromURL(%q): %v", tc.in, err)
		}
		if got := p.String(); got != tc.want {
			t.Fatalf("FromURL(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
	for _, tc := range []struct {
		kind titanql.Kind
		in   string
	}{
		{titanql.KindRollup, "by=rack"},
		{titanql.KindRollup, "bucket=10ms"},
		{titanql.KindRollup, "code=zzz"},
		{titanql.KindRollup, "code=13,31"},
		{titanql.KindRollup, "cage=3"},
		{titanql.KindRollup, "node=c[3-"},
		{titanql.KindRollup, "since=yesterday"},
		{titanql.KindTop, "by=cabinet"},
		{titanql.KindTop, "k=-1"},
		{titanql.KindTop, "cabinet=c["},
	} {
		v, err := url.ParseQuery(tc.in)
		if err != nil {
			t.Fatal(err)
		}
		if p, err := titanql.FromURL(tc.kind, v); err == nil {
			if _, err := p.Compile(); err == nil {
				t.Fatalf("FromURL(%q) lowered and compiled, want error", tc.in)
			}
		}
	}
}

// TestParseErrors: malformed queries fail with errors, never panic,
// and never silently drop a clause.
func TestParseErrors(t *testing.T) {
	for _, q := range []string{
		"",
		"   ",
		"code=",
		"=13",
		"code!13",
		"code!",
		"foo=1",
		"node!=c3-*",
		"* code=13",
		"code=13 code=31",
		"code!=13 code!=31",
		"cage=x",
		"cage=-2",
		"since=yesterday",
		"code=,",
		"* |",
		"* | | by code",
		"* | by",
		"* | by foo",
		"* | bucket",
		"* | bucket 0s",
		"* | bucket 1h 2h",
		"* | bucket 500ms",
		"* | top",
		"* | top 0",
		"* | top -3",
		"* | top node x",
		"* | top node 1 2",
		"* | top blade",
		"* | by code | by cage",
		"* | top 5 | top 6",
		"* | by cage | top node",
		"* | bucket 1h | top serial",
		"* | frobnicate 3",
	} {
		if _, err := titanql.Parse(q); err == nil {
			t.Fatalf("Parse(%q) succeeded, want error", q)
		}
	}
}

// qlFixture seals most of a short simulated run into small segments and
// keeps the rest as a retained tail — the (sealed, tail) snapshot shape
// every query executes over.
var qlFixture = sync.OnceValue(func() struct {
	segs []*store.Segment
	tail []console.Event
	all  []console.Event
	mid  time.Time
} {
	cfg := sim.DefaultConfig()
	cfg.End = cfg.Start.AddDate(0, 0, 10)
	res := sim.Run(cfg)
	var log bytes.Buffer
	if err := console.WriteLog(&log, res.Events); err != nil {
		panic(err)
	}
	events, err := console.NewCorrelator().ParseAll(bytes.NewReader(log.Bytes()))
	if err != nil {
		panic(err)
	}
	dir, err := os.MkdirTemp("", "titanql-test")
	if err != nil {
		panic(err)
	}
	st, err := store.Open(dir)
	if err != nil {
		panic(err)
	}
	cut := len(events) * 7 / 8
	const chunk = 4096
	for lo := 0; lo < cut; lo += chunk {
		hi := min(lo+chunk, cut)
		if _, err := st.Seal(events[lo:hi]); err != nil {
			panic(err)
		}
	}
	return struct {
		segs []*store.Segment
		tail []console.Event
		all  []console.Event
		mid  time.Time
	}{st.Segments(), events[cut:], events, events[len(events)/2].Time}
})

// equivalenceQueries is the standing gate's query mix: every predicate
// dimension, both plan kinds, ranked and unranked.
func equivalenceQueries(mid time.Time) []string {
	ts := mid.UTC().Format(time.RFC3339)
	return []string{
		"* | by code | bucket 1h",
		"* | bucket 6h",
		"code=48 cabinet=c3-* | by cage | bucket 6h | top 5",
		"code=13,31 code!=31 | by cabinet | bucket 1d",
		"cage=2 | bucket 30m | top 3",
		"node=c?-1* | by node | bucket 12h | top 10",
		"code=sbe since=" + ts + " | by code,cage | bucket 2h",
		"until=" + ts + " | by cabinet,cage | bucket 3h",
		"* | top node 5",
		"code=sbe | top serial 10",
		"cabinet=c*-0 | top code 0",
		"code=99 | by code | bucket 1h", // absent code: empty result
	}
}

// TestExecuteMatchesNaive is the standing equivalence gate: for every
// query, the compiled segment-parallel execution byte-matches the naive
// fold over the materialized stream, at every worker count.
func TestExecuteMatchesNaive(t *testing.T) {
	fx := qlFixture()
	for _, q := range equivalenceQueries(fx.mid) {
		plan, err := titanql.Parse(q)
		if err != nil {
			t.Fatalf("Parse(%q): %v", q, err)
		}
		c, err := plan.Compile()
		if err != nil {
			t.Fatalf("Compile(%q): %v", q, err)
		}
		wantJSON := mustJSON(t, c.ExecuteEvents(fx.all))
		for _, workers := range []int{1, 2, 5, 0} {
			got := c.Execute(fx.segs, fx.tail, workers)
			if gotJSON := mustJSON(t, got); !bytes.Equal(gotJSON, wantJSON) {
				t.Fatalf("query %q workers=%d: compiled plan diverges from naive fold\ngot:  %s\nwant: %s",
					q, workers, gotJSON, wantJSON)
			}
		}
		// Run is the same three steps fused.
		got, err := titanql.Run(q, fx.segs, fx.tail, 0)
		if err != nil {
			t.Fatalf("Run(%q): %v", q, err)
		}
		if !bytes.Equal(mustJSON(t, got), wantJSON) {
			t.Fatalf("Run(%q) diverges from naive fold", q)
		}
	}
}

// TestRankedCellsDeterministic: the rank stage keeps the highest-count
// cells with stable canonical tie order — a prefix check against the
// unranked document.
func TestRankedCellsDeterministic(t *testing.T) {
	fx := qlFixture()
	full, err := titanql.Run("* | by code | bucket 6h", fx.segs, fx.tail, 1)
	if err != nil {
		t.Fatal(err)
	}
	ranked, err := titanql.Run("* | by code | bucket 6h | top 4", fx.segs, fx.tail, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ranked.RankedTop != 4 || len(ranked.Rollup.Cells) > 4 {
		t.Fatalf("ranked doc kept %d cells, RankedTop=%d", len(ranked.Rollup.Cells), ranked.RankedTop)
	}
	if full.Rollup.TotalEvents != ranked.Rollup.TotalEvents {
		t.Fatal("ranking changed total_events; it must only trim cells")
	}
	for i := 1; i < len(ranked.Rollup.Cells); i++ {
		if ranked.Rollup.Cells[i].Count > ranked.Rollup.Cells[i-1].Count {
			t.Fatal("ranked cells not in descending count order")
		}
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
