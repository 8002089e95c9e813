package metric_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"titanre/internal/console"
	"titanre/internal/metric"
	"titanre/internal/router"
	"titanre/internal/serve"
	"titanre/internal/sim"
)

// The agreement tests hold titand and titanrouter to one declaration per
// counter: a Stats snapshot rendered as JSON (/stats) and as Prometheus
// text (/metrics) must carry the same numbers. The JSON side is walked
// alongside the Go type so the mapping comes from the field tags, not
// from the renderer under test.

// series is one sample: its value and the family that declares it.
type series struct {
	value  float64
	family string
}

// expected walks doc, the JSON form of a value of type typ, and adds
// the series every numeric or bool leaf must render as (keyed as the
// exposition writes it, "name{labels}") to want, with each family's
// declared kind in kinds. A numeric leaf on a field without a metric
// tag, or two leaves claiming one series, fails t.
func expected(t *testing.T, typ reflect.Type, doc map[string]any, labels []string, want map[string]series, kinds map[string]string) {
	t.Helper()
	put := func(field, name, kind string, suffix string, labels []string, v any) {
		if name == "" {
			t.Errorf("%s.%s: numeric field without a metric tag", typ.Name(), field)
			return
		}
		key := name + suffix
		if len(labels) > 0 {
			key += "{" + strings.Join(labels, ",") + "}"
		}
		var x float64
		switch v := v.(type) {
		case float64:
			x = v
		case bool:
			if v {
				x = 1
			}
		default:
			t.Errorf("%s.%s: JSON leaf %v (%T) is not a number", typ.Name(), field, v, v)
		}
		if _, dup := want[key]; dup {
			t.Errorf("%s: claimed by two leaves", key)
		}
		want[key] = series{x, name}
		kinds[name] = kind
	}
	with := func(labels []string, l string) []string { return append(labels[:len(labels):len(labels)], l) }
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		jname, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		v, ok := doc[jname]
		if !ok || v == nil {
			continue
		}
		var name, kind, label string
		for j, part := range strings.Split(f.Tag.Get("metric"), ",") {
			switch {
			case strings.HasPrefix(part, "label="):
				label = strings.TrimPrefix(part, "label=")
			case j == 0:
				name = part
			default:
				kind = part
			}
		}
		ft := f.Type
		if ft.Kind() == reflect.Pointer {
			ft = ft.Elem()
		}
		switch {
		case ft == reflect.TypeOf(metric.Histogram{}):
			h := v.(map[string]any)
			bounds, counts := h["bounds"].([]any), h["counts"].([]any)
			if len(counts) != len(bounds)+1 {
				t.Errorf("%s: %d counts for %d bounds", jname, len(counts), len(bounds))
				continue
			}
			for b, c := range counts {
				le := "+Inf"
				if b < len(bounds) {
					le = fmt.Sprintf("%g", bounds[b].(float64))
				}
				put(f.Name, name, "histogram", "_bucket", with(labels, fmt.Sprintf("le=%q", le)), c)
			}
			put(f.Name, name, "histogram", "_sum", labels, h["sum"])
			put(f.Name, name, "histogram", "_count", labels, h["count"])
		case ft.Kind() == reflect.Struct:
			expected(t, ft, v.(map[string]any), labels, want, kinds)
		case ft.Kind() == reflect.Map:
			if label == "" {
				t.Errorf("%s.%s: map field without a label", typ.Name(), f.Name)
			}
			for k, e := range v.(map[string]any) {
				kl := with(labels, fmt.Sprintf("%s=%q", label, k))
				if ft.Elem().Kind() == reflect.Struct {
					expected(t, ft.Elem(), e.(map[string]any), kl, want, kinds)
				} else {
					put(f.Name, name, kind, "", kl, e)
				}
			}
		case ft.Kind() == reflect.Slice:
			put(f.Name, name, kind, "", labels, float64(len(v.([]any))))
		case ft.Kind() != reflect.String:
			put(f.Name, name, kind, "", labels, v)
		}
	}
}

// parseExposition reads Prometheus text into samples keyed as written
// and each family's TYPE; every family must have a non-empty HELP.
func parseExposition(t *testing.T, text string) (map[string]series, map[string]string) {
	t.Helper()
	got, kinds, helps := map[string]series{}, map[string]string{}, map[string]string{}
	family := ""
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, help, _ := strings.Cut(rest, " ")
			helps[name] = help
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, kind, _ := strings.Cut(rest, " ")
			family, kinds[name] = name, kind
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 || family == "" {
			t.Fatalf("bad exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("bad sample value in %q: %v", line, err)
		}
		if _, dup := got[line[:sp]]; dup {
			t.Errorf("series %s rendered twice", line[:sp])
		}
		got[line[:sp]] = series{v, family}
	}
	for name := range kinds {
		if helps[name] == "" {
			t.Errorf("family %s has no HELP", name)
		}
	}
	return got, kinds
}

// checkAgree compares a /stats JSON document of type typ against a
// /metrics exposition over the families keep admits: every leaf maps to
// exactly one series of equal value, every series maps back to a leaf,
// and each family's TYPE is the declared kind.
func checkAgree(t *testing.T, typ reflect.Type, statsJSON []byte, exposition string, keep func(kind string) bool) {
	t.Helper()
	var doc map[string]any
	if err := json.Unmarshal(statsJSON, &doc); err != nil {
		t.Fatal(err)
	}
	want, wantKinds := map[string]series{}, map[string]string{}
	expected(t, typ, doc, nil, want, wantKinds)
	got, gotKinds := parseExposition(t, exposition)
	for name, kind := range wantKinds {
		if gotKinds[name] != kind {
			t.Errorf("family %s: TYPE %q, declared %q", name, gotKinds[name], kind)
		}
	}
	n := 0
	for key, w := range want {
		if !keep(wantKinds[w.family]) {
			continue
		}
		n++
		if g, ok := got[key]; !ok {
			t.Errorf("%s: in /stats (%g) but not rendered", key, w.value)
		} else if g.value != w.value {
			t.Errorf("%s: rendered %g, /stats says %g", key, g.value, w.value)
		}
	}
	for key, g := range got {
		if _, ok := want[key]; !ok && keep(gotKinds[g.family]) {
			t.Errorf("%s: rendered (%g) with no /stats leaf", key, g.value)
		}
	}
	if n == 0 {
		t.Fatal("no series compared")
	}
}

func all(string) bool { return true }

// counters admits what an HTTP scrape can compare across two requests:
// counters and histograms, not gauges such as uptime and heap.
func counters(kind string) bool { return kind == "counter" || kind == "histogram" }

// renderBoth encodes one snapshot both ways.
func renderBoth(t *testing.T, snap any) ([]byte, string) {
	t.Helper()
	js, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var text strings.Builder
	if err := metric.Write(&text, snap); err != nil {
		t.Fatal(err)
	}
	return js, text.String()
}

func get(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %v", url, resp.StatusCode, err)
	}
	return body
}

// fewDays is a short simulated log: several XID codes, a few thousand
// lines, well under a second to stream.
func fewDays(t *testing.T) []byte {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.End = cfg.Start.AddDate(0, 0, 4)
	var buf bytes.Buffer
	if err := console.WriteLog(&buf, sim.Run(cfg).Events); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func stream(t *testing.T, url string, log []byte, source string) {
	t.Helper()
	_, err := serve.StreamLog(context.Background(), url, bytes.NewReader(log),
		serve.StreamOptions{Concurrency: 1, Retry429: true, Source: source})
	if err != nil {
		t.Fatal(err)
	}
}

func newDaemon(t *testing.T, cfg serve.Config) (*serve.Server, string) {
	t.Helper()
	s := serve.NewServer(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s, ts.URL
}

func quiesce(t *testing.T, s *serve.Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Quiesce(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestTitandMetricsAgree runs a journaled, compacting titand with a
// tagged source and one rejected batch, so the snapshot has every
// section (journal, sources, events by code, latency histogram), then
// checks one StatsNow both ways and an HTTP scrape of /metrics against
// /stats.
func TestTitandMetricsAgree(t *testing.T) {
	dir := t.TempDir()
	cfg := serve.DefaultConfig()
	cfg.CompactDir = filepath.Join(dir, "segments")
	cfg.CompactAge = 48 * time.Hour
	cfg.CompactMin = 1
	cfg.CompactInterval = time.Hour // idle; the test compacts explicitly
	cfg.JournalDir = filepath.Join(dir, "journal")
	s, url := newDaemon(t, cfg)
	if _, err := s.WarmStart(dir); err != nil {
		t.Fatal(err)
	}
	stream(t, url, fewDays(t), "feed")
	resp, err := http.Post(url+"/ingest", "text/plain", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	quiesce(t, s)
	if n, err := s.CompactNow(); err != nil || n == 0 {
		t.Fatalf("compaction sealed %d events: %v", n, err)
	}
	// Take the interval syncer's pending fsync now, so the journal's
	// sync counter cannot tick between the /stats and /metrics requests.
	if err := s.Journal().Sync(); err != nil {
		t.Fatal(err)
	}

	st := s.StatsNow()
	if st.Journal == nil || len(st.Sources) == 0 || len(st.EventsByCode) < 2 || st.IngestLatency.Count == 0 ||
		st.BatchesRejected == 0 || st.SealedEvents == 0 {
		t.Fatalf("fixture left a section empty: %+v", st)
	}
	t.Run("snapshot", func(t *testing.T) {
		js, text := renderBoth(t, st)
		checkAgree(t, reflect.TypeOf(st), js, text, all)
	})
	t.Run("scrape", func(t *testing.T) {
		checkAgree(t, reflect.TypeOf(st), get(t, url+"/stats"), string(get(t, url+"/metrics")), counters)
	})
}

// TestRouterMetricsAgree does the same for titanrouter over two
// replicas, with two tagged sources.
func TestRouterMetricsAgree(t *testing.T) {
	log := fewDays(t)
	var urls []string
	var replicas []*serve.Server
	for i := 0; i < 2; i++ {
		s, url := newDaemon(t, serve.DefaultConfig())
		replicas = append(replicas, s)
		urls = append(urls, url)
	}
	rt, err := router.New(router.Config{Replicas: urls})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)
	half := bytes.LastIndexByte(log[:len(log)/2], '\n') + 1
	stream(t, ts.URL, log[:half], "a")
	stream(t, ts.URL, log[half:], "b")
	for _, s := range replicas {
		quiesce(t, s)
	}
	get(t, ts.URL+"/alerts")

	st := rt.StatsNow()
	if len(st.Sources) != 2 || st.SubBatches == 0 || st.MergedAlerts == 0 {
		t.Fatalf("fixture left a section empty: %+v", st)
	}
	t.Run("snapshot", func(t *testing.T) {
		js, text := renderBoth(t, st)
		checkAgree(t, reflect.TypeOf(st), js, text, all)
	})
	t.Run("scrape", func(t *testing.T) {
		checkAgree(t, reflect.TypeOf(st), get(t, ts.URL+"/stats"), string(get(t, ts.URL+"/metrics")), counters)
	})
}
