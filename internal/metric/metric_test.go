package metric_test

import (
	"strings"
	"testing"

	"titanre/internal/metric"
)

type inner struct {
	Hits uint64 `json:"hits" metric:"t_hits_total,counter" help:"Hits."`
	Live int64  `json:"live" metric:"t_live,gauge" help:"Live."`
}

type toy struct {
	Name    string           `json:"name"`
	Up      float64          `json:"up" metric:"t_up_seconds,gauge" help:"Uptime."`
	Big     uint64           `json:"big" metric:"t_big_total,counter" help:"Big counter."`
	Depth   int              `json:"depth" metric:"t_depth,gauge" help:"Depth."`
	OK      bool             `json:"ok" metric:"t_ok,gauge" help:"OK flag."`
	Peers   []string         `json:"peers" metric:"t_peers,gauge" help:"Peer count."`
	Inner   inner            `json:"inner"`
	Off     *inner           `json:"off,omitempty"`
	ByCode  map[string]int   `json:"by_code" metric:"t_code_total,counter,label=code" help:"Per code."`
	Sources map[string]inner `json:"sources" metric:"label=source"`
	Lat     metric.Histogram `json:"lat" metric:"t_lat_seconds" help:"Latency."`
}

// TestWriteGolden pins the exposition of every field shape Write
// supports: integer counters stay exact, gauges print as %g, an
// untagged string and a nil pointer render nothing, map series come
// out in key order grouped under one header, and the histogram's last
// count is the +Inf bucket.
func TestWriteGolden(t *testing.T) {
	snap := toy{
		Name:    "ignored",
		Up:      1.5,
		Big:     18446744073709551615,
		Depth:   12345678,
		OK:      true,
		Peers:   []string{"a", "b"},
		Inner:   inner{Hits: 3, Live: -2},
		ByCode:  map[string]int{"XID 48": 2, "OTB": 1},
		Sources: map[string]inner{"b": {Hits: 5}, "a": {Hits: 4, Live: 1}},
		Lat:     metric.Histogram{Bounds: []float64{0.001, 0.5}, Counts: []uint64{1, 3, 4}, Sum: 0.75, Count: 4},
	}
	var b strings.Builder
	if err := metric.Write(&b, &snap); err != nil {
		t.Fatal(err)
	}
	want := `# HELP t_up_seconds Uptime.
# TYPE t_up_seconds gauge
t_up_seconds 1.5
# HELP t_big_total Big counter.
# TYPE t_big_total counter
t_big_total 18446744073709551615
# HELP t_depth Depth.
# TYPE t_depth gauge
t_depth 1.2345678e+07
# HELP t_ok OK flag.
# TYPE t_ok gauge
t_ok 1
# HELP t_peers Peer count.
# TYPE t_peers gauge
t_peers 2
# HELP t_hits_total Hits.
# TYPE t_hits_total counter
t_hits_total 3
t_hits_total{source="a"} 4
t_hits_total{source="b"} 5
# HELP t_live Live.
# TYPE t_live gauge
t_live -2
t_live{source="a"} 1
t_live{source="b"} 0
# HELP t_code_total Per code.
# TYPE t_code_total counter
t_code_total{code="OTB"} 1
t_code_total{code="XID 48"} 2
# HELP t_lat_seconds Latency.
# TYPE t_lat_seconds histogram
t_lat_seconds_bucket{le="0.001"} 1
t_lat_seconds_bucket{le="0.5"} 3
t_lat_seconds_bucket{le="+Inf"} 4
t_lat_seconds_sum 0.75
t_lat_seconds_count 4
`
	if got := b.String(); got != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", got, want)
	}
}
