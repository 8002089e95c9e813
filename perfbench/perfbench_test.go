package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary serve as the live workloads' input
// generator, as the benchmark binary does.
func TestMain(m *testing.M) {
	if spec := os.Getenv(generatorEnv); spec != "" {
		if err := runGenerator(spec); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// smoke runs one workload over a month of history and checks that it
// measured every metric of its mode and found no wrong output.
func smoke(t *testing.T, w workload, trace bool) *outcome {
	t.Helper()
	out, err := w.run(options{seed: 3, seconds: time.Second, trace: trace, work: t.TempDir(), months: 1})
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	if out.failed != 0 || out.attempted == 0 {
		t.Fatalf("%s: %d of %d operations failed: %v", w.name, out.failed, out.attempted, out.problems)
	}
	defs, vals := endToEnd, out.e2e
	if trace {
		defs, vals = perLayer, out.layers
	}
	for _, m := range defs {
		v, ok := vals[m.name]
		if !trace && (!ok || v <= 0) {
			t.Errorf("%s: end-to-end %s = %v (measured %v), want > 0", w.name, m.name, v, ok)
		}
	}
	return out
}

func TestSmokeWorkloads(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) { smoke(t, w, false) })
	}
}

// TestSmokeTraced checks the traced run: on batch-study the stages'
// self times account for the study's wall time, and on the live path
// every replica span links to its router span.
func TestSmokeTraced(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			out := smoke(t, w, true)
			if len(out.spans) == 0 {
				t.Fatal("traced run recorded no spans")
			}
			switch w.name {
			case "batch-study":
				if share := out.layers["bench.stage_self_share"]; share < 0.9 || share > 1 {
					t.Fatalf("stage self times cover %.3f of the study, want within a tenth of it", share)
				}
			default:
				if out.layers["serve.ingest_p50_ms"] <= 0 || out.layers["router.ingest_self_p50_ms"] <= 0 {
					t.Fatalf("no linked ingest spans: %v", out.layers)
				}
			}
		})
	}
}

// TestCorruptReferenceIsWrongOutput streams a day of history into a
// fleet, then checks the live reads against references of which one is
// corrupted by a single byte: exactly that read must count as failed.
func TestCorruptReferenceIsWrongOutput(t *testing.T) {
	in, err := generate(t.TempDir(), 5, 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A day of history is enough to exercise every read.
	day := sort.Search(len(in.events), func(i int) bool { return in.events[i].Time.After(in.cfg.Start.AddDate(0, 0, 1)) })
	in.events, in.log = in.events[:day], in.log[:lineOffset(in.log, day)]
	out := newOutcome()
	parseCheck(in, out)
	reads, err := ingestReads(in.cfg, in.events)
	if err != nil {
		t.Fatal(err)
	}
	f, err := startFleet(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.stop()
	b, counts := splitBatches(in.log, batchLines)
	for _, r := range f.replay(b, counts, nominalRate, 0, nil, nil) {
		if !r.ok() {
			t.Fatalf("ingest: status %d: %v", r.status, r.err)
		}
	}
	if err := f.quiesce(); err != nil {
		t.Fatal(err)
	}

	f.checkReads(reads, out)
	if out.failed != 0 {
		t.Fatalf("intact references: %d failed: %v", out.failed, out.problems)
	}
	bad := reads[1]
	bad.want = bytes.Clone(bad.want)
	bad.want[len(bad.want)/2] ^= 1
	f.checkReads([]read{reads[0], bad, reads[2]}, out)
	if out.failed != 1 {
		t.Fatalf("one corrupted reference: %d reads failed, want 1", out.failed)
	}
}

// TestSelfTime checks self times on a synthetic tree, including
// overlapping children and a child that outlives its parent.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "bench.study", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "sim.run", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "console.encode", Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "core.report", Start: 90, End: 120},
		{ID: 5, Parent: 3, Name: "inner", Start: 25, End: 35},
	}
	want := map[int]time.Duration{1: 100 - 40 - 10, 2: 20, 3: 30 - 10, 4: 30, 5: 10}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d: self %d, want %d", id, got[id], w)
		}
	}
	if share := stageSelfShare(spans); share != float64(20+20+30)/100 {
		t.Errorf("stage self share %v", share)
	}
}

// TestCorruptStudyReference runs a batch study over a month-long
// dataset against its serial reference, then against a reference whose
// report digest and one observation result are wrong: both must count
// as wrong outputs.
func TestCorruptStudyReference(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "dataset")
	want, err := runChild("dataset", 5, 1, dir)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := runChild("reference", 5, 1, dir)
	if err != nil {
		t.Fatal(err)
	}
	want.Report, want.Observations = ref.Report, ref.Observations
	out := newOutcome()
	if _, err := runStudy(dir, simConfig(5, 1), want, nil, out); err != nil {
		t.Fatal(err)
	}
	if out.failed != 0 {
		t.Fatalf("intact reference: %d failed: %v", out.failed, out.problems)
	}
	bad := want
	bad.Report = strings.Repeat("0", len(want.Report))
	bad.Observations = append([]bool(nil), want.Observations...)
	bad.Observations[0] = !bad.Observations[0]
	if _, err := runStudy(dir, simConfig(5, 1), bad, nil, out); err != nil {
		t.Fatal(err)
	}
	if out.failed != 2 {
		t.Fatalf("corrupted reference: %d failed, want 2 (report and observations): %v", out.failed, out.problems)
	}
}

// TestLink checks that replica spans find their router spans through
// the sequence base, and read spans through interval containment.
func TestLink(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "bench.ingest", Req: "0", Start: 0, End: 50},
		{ID: 2, Name: "router.ingest", Req: "0", Start: 5, End: 45},
		{ID: 3, Name: "serve.ingest", Req: "0", Start: 10, End: 20},
		{ID: 4, Name: "serve.ingest", Req: "0", Start: 12, End: 30},
		{ID: 5, Name: "router.read", Start: 60, End: 90},
		{ID: 6, Name: "serve.read", Start: 65, End: 80},
		{ID: 7, Name: "serve.ingest", Req: "400", Start: 70, End: 75},
	}
	if n := link(spans); n != 1 {
		t.Fatalf("%d unlinked spans, want 1 (the ingest span with no router batch)", n)
	}
	for id, parent := range map[int]int{2: 1, 3: 2, 4: 2, 6: 5, 7: 0} {
		if spans[id-1].Parent != parent {
			t.Errorf("span %d: parent %d, want %d", id, spans[id-1].Parent, parent)
		}
	}
	if self := selfTimes(spans)[2]; self != 40-20 {
		t.Errorf("router ingest self %d, want 20", self)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the metrics and
// workloads the program reports.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q vs %q", i, w.Name, workloads[i].name)
		}
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", what, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: %s [%s] vs %s [%s]", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}
