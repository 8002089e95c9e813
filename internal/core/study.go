// Package core orchestrates the full study: run the simulated
// installation, collect its console log, job log and nvidia-smi samples,
// and expose one accessor per paper figure plus automated checks of the
// paper's fourteen observations. Everything downstream — the commands,
// the examples, the benchmark harness — goes through a Study.
package core

import (
	"io"
	"time"

	"titanre/internal/alert"
	"titanre/internal/analysis"
	"titanre/internal/console"
	"titanre/internal/filtering"
	"titanre/internal/gpu"
	"titanre/internal/ingest"
	"titanre/internal/nvsmi"
	"titanre/internal/scheduler"
	"titanre/internal/sim"
	"titanre/internal/store"
	"titanre/internal/titanql"
	"titanre/internal/topology"
	"titanre/internal/xid"
)

// Study binds a simulated dataset to the analysis pipeline. Analysis
// intermediates (per-code slices, merged retirements, filtered incident
// sets) are memoized lazily and safely for concurrent readers — see
// cache.go — so figure accessors may be called from multiple goroutines.
type Study struct {
	Config sim.Config
	Result *sim.Result

	cache studyCache

	// store is the sealed columnar segment store behind Result.Events,
	// when the dataset was loaded through dataset.LoadStore. With it the
	// per-code index is built by bitmap column scans (exact-size
	// allocations) instead of a pass over the event structs.
	store *store.Store

	// ingestHealth is the ledger of a resilient dataset load; nil when
	// the data came from a fresh simulation or the strict loader.
	ingestHealth *ingest.Health
	// confidenceThreshold is the per-artifact coverage below which
	// analyses fed by that artifact are flagged low-confidence.
	confidenceThreshold float64
}

// New runs the simulation for the given configuration.
func New(cfg sim.Config) *Study {
	return &Study{Config: cfg, Result: sim.Run(cfg)}
}

// FromResult wraps an existing dataset (e.g. parsed from logs on disk).
func FromResult(res *sim.Result) *Study {
	return &Study{Config: res.Config, Result: res}
}

// FromStore wraps a dataset loaded through the columnar segment store
// (dataset.LoadStore): res.Events must be exactly the store's events in
// segment order. Figure accessors are unchanged; the per-code index is
// served by column scans.
func FromStore(res *sim.Result, st *store.Store) *Study {
	s := FromResult(res)
	s.store = st
	return s
}

// FromIngest wraps a dataset that came through the resilient loader,
// keeping its ingestion-health ledger so the report can carry coverage
// and degraded-mode confidence flags. A nil health behaves like
// FromResult.
func FromIngest(res *sim.Result, health *ingest.Health) *Study {
	s := FromResult(res)
	s.ingestHealth = health
	s.confidenceThreshold = ingest.DefaultOptions().ConfidenceThreshold
	return s
}

// IngestHealth returns the ingestion ledger, or nil when the dataset did
// not come through the resilient loader.
func (s *Study) IngestHealth() *ingest.Health { return s.ingestHealth }

// confidenceAffected maps each artifact to the analyses it feeds; an
// artifact below the coverage threshold degrades exactly these.
var confidenceAffected = map[string]string{
	"console.log":  "Figs 2-13 (console-event series, spatial maps, co-occurrence), observation checks",
	"jobs.tsv":     "scheduled node-hours, Fig 21 workload shapes, sample-allocation rejoin",
	"samples.tsv":  "Figs 16-20 (utilization and per-user SBE correlations)",
	"snapshot.tsv": "Figs 14-15 (SBE skew, cage analyses), top-offender selection",
}

// ConfidenceFlags lists the analyses running on degraded input: every
// artifact whose ingestion coverage fell below the threshold set by the
// resilient loader. Empty for clean loads and simulated datasets.
func (s *Study) ConfidenceFlags() []ingest.ConfidenceFlag {
	if s.ingestHealth == nil {
		return nil
	}
	threshold := s.confidenceThreshold
	if threshold <= 0 {
		threshold = ingest.DefaultOptions().ConfidenceThreshold
	}
	var flags []ingest.ConfidenceFlag
	for _, a := range s.ingestHealth.Artifacts {
		if cov := a.Coverage(); a.Missing || cov < threshold {
			flags = append(flags, ingest.ConfidenceFlag{
				Artifact: a.Name,
				Coverage: cov,
				Affected: confidenceAffected[a.Name],
			})
		}
	}
	return flags
}

// Events returns the full console log.
func (s *Study) Events() []console.Event { return s.Result.Events }

// EventsOf returns the console events of one code.
func (s *Study) EventsOf(code xid.Code) []console.Event {
	s.index()
	return s.cache.byCode[code]
}

// Window returns the observation window.
func (s *Study) Window() (time.Time, time.Time) { return s.Config.Start, s.Config.End }

// SBECounts returns per-node single-bit totals from the final nvidia-smi
// sweep.
func (s *Study) SBECounts() map[topology.NodeID]int64 {
	s.index()
	return s.cache.sbe
}

// Top10Offenders returns the ten worst SBE nodes.
func (s *Study) Top10Offenders() []topology.NodeID {
	s.index()
	return s.cache.top10
}

// HeatmapCodes is the XID list of the Fig. 13 axes.
func HeatmapCodes() []xid.Code {
	return []xid.Code{
		xid.OffTheBus, 13, 31, 32, 38, 43, 44, 45, 48, 57, 58, 59, 62, 63,
	}
}

// ---- Figure accessors ----

// Fig2MonthlyDBE is the monthly double-bit-error frequency.
func (s *Study) Fig2MonthlyDBE() []analysis.MonthCount {
	return analysis.MonthlyCounts(s.EventsOf(xid.DoubleBitError), s.Config.Start, s.Config.End)
}

// DBEMTBF is the headline "one DBE roughly every 160 hours".
func (s *Study) DBEMTBF() (time.Duration, error) {
	return analysis.MTBFOf(s.EventsOf(xid.DoubleBitError), s.Config.Start, s.Config.End)
}

// Fig3aDBESpatial is the DBE floor map.
func (s *Study) Fig3aDBESpatial() analysis.Grid {
	return analysis.SpatialMap(s.EventsOf(xid.DoubleBitError))
}

// Fig3bDBECages is the DBE cage distribution with distinct cards.
func (s *Study) Fig3bDBECages() analysis.CageCounts {
	return analysis.CageDistribution(s.EventsOf(xid.DoubleBitError))
}

// Fig3cDBEStructures is the DBE breakdown by memory structure.
func (s *Study) Fig3cDBEStructures() map[gpu.Structure]int {
	return analysis.StructureBreakdown(s.EventsOf(xid.DoubleBitError))
}

// Fig4MonthlyOTB is the monthly off-the-bus frequency.
func (s *Study) Fig4MonthlyOTB() []analysis.MonthCount {
	return analysis.MonthlyCounts(s.EventsOf(xid.OffTheBus), s.Config.Start, s.Config.End)
}

// Fig5OTBSpatial is the off-the-bus floor map and cage distribution.
func (s *Study) Fig5OTBSpatial() (analysis.Grid, analysis.CageCounts) {
	ev := s.EventsOf(xid.OffTheBus)
	return analysis.SpatialMap(ev), analysis.CageDistribution(ev)
}

// Fig6MonthlyRetirement is the monthly page-retirement frequency.
func (s *Study) Fig6MonthlyRetirement() []analysis.MonthCount {
	return analysis.MonthlyCounts(s.retirementEvents(), s.Config.Start, s.Config.End)
}

// Fig7RetirementSpatial is the page-retirement floor map and cages.
func (s *Study) Fig7RetirementSpatial() (analysis.Grid, analysis.CageCounts) {
	ev := s.retirementEvents()
	return analysis.SpatialMap(ev), analysis.CageDistribution(ev)
}

// Fig8RetirementTiming is the retirement-after-DBE timing histogram.
func (s *Study) Fig8RetirementTiming() analysis.RetirementTiming {
	return analysis.RetirementDelays(s.Result.Events)
}

// Fig9DriverXIDMonthly returns monthly frequencies of XIDs 31, 32, 43, 44
// as incident counts (five-second child filtering applied).
func (s *Study) Fig9DriverXIDMonthly() map[xid.Code][]analysis.MonthCount {
	out := make(map[xid.Code][]analysis.MonthCount)
	for _, code := range []xid.Code{31, 32, 43, 44} {
		out[code] = analysis.MonthlyCounts(s.incidents(code), s.Config.Start, s.Config.End)
	}
	return out
}

// Fig10XID13Daily is the daily XID 13 incident series (five-second
// filtered) with its burstiness index.
func (s *Study) Fig10XID13Daily() ([]int, float64) {
	daily := analysis.DailyCounts(s.incidents(13), s.Config.Start, s.Config.End)
	return daily, analysis.BurstinessIndex(daily)
}

// Fig11MicrocontrollerHalts returns the monthly XID 59 and 62 series.
func (s *Study) Fig11MicrocontrollerHalts() (old, new59 []analysis.MonthCount) {
	return analysis.MonthlyCounts(s.EventsOf(xid.MicrocontrollerHaltOld), s.Config.Start, s.Config.End),
		analysis.MonthlyCounts(s.EventsOf(xid.MicrocontrollerHaltNew), s.Config.Start, s.Config.End)
}

// Fig12XID13Filtering returns the three XID 13 floor maps: unfiltered,
// five-second filtered, and the suppressed children.
func (s *Study) Fig12XID13Filtering() (all, filtered, children analysis.Grid) {
	ev := s.EventsOf(13)
	return analysis.SpatialMap(ev),
		analysis.SpatialMap(s.incidents(13)),
		analysis.SpatialMap(filtering.Children(ev, incidentThreshold))
}

// Fig13Heatmaps returns the co-occurrence matrices with and without
// same-type pairs, over a 300-second window.
func (s *Study) Fig13Heatmaps() (withSame, withoutSame [][]float64, codes []xid.Code) {
	codes = HeatmapCodes()
	withSame = filtering.CooccurrenceMatrix(s.Result.Events, codes, 300*time.Second, false)
	withoutSame = filtering.CooccurrenceMatrix(s.Result.Events, codes, 300*time.Second, true)
	return withSame, withoutSame, codes
}

// Fig14SBESkew is the SBE spatial-skew analysis.
func (s *Study) Fig14SBESkew() analysis.SBESkew { return analysis.AnalyzeSBESkew(s.SBECounts()) }

// Fig15SBECages is the SBE cage analysis.
func (s *Study) Fig15SBECages() analysis.SBECageAnalysis {
	return analysis.AnalyzeSBECages(s.SBECounts())
}

// Fig16to19Correlations is the SBE-versus-utilization correlation table.
func (s *Study) Fig16to19Correlations() []analysis.UtilizationCorrelation {
	return analysis.SBEUtilizationCorrelations(s.Result.Samples, s.Top10Offenders())
}

// Fig20UserCorrelation is the per-user SBE correlation.
func (s *Study) Fig20UserCorrelation() analysis.UserCorrelation {
	return analysis.SBEByUser(s.Result.Samples, s.Top10Offenders())
}

// Fig21Workload is the workload characterization.
func (s *Study) Fig21Workload() analysis.WorkloadCharacteristics {
	return analysis.CharacterizeWorkload(s.Result.Jobs)
}

// Rollup computes a time-bucketed fleet-wide aggregate over the study's
// console events — the batch-pipeline reference the live /rollup
// endpoint must byte-match. When the study is store-backed the events
// already came out of sealed segments in arrival order, so the two
// sides fold the identical stream through the identical kernel.
func (s *Study) Rollup(spec store.RollupSpec) (store.RollupDoc, error) {
	return store.RollupEvents(s.Result.Events, spec)
}

// TopOffenderCards computes the batch-side top-K offender ranking the
// live /top endpoint must match.
func (s *Study) TopOffenderCards(spec store.TopSpec) (store.TopDoc, error) {
	return store.TopEvents(s.Result.Events, spec)
}

// Query runs one titanql expression over the study. A store-backed
// study executes the compiled plan segment-parallel over its sealed
// segments — the same execution titand's GET /query runs — while an
// event-backed study folds the materialized stream through the naive
// reference; the document is byte-identical either way (and at any
// worker count; <= 0 means GOMAXPROCS).
func (s *Study) Query(q string, workers int) (titanql.Doc, error) {
	plan, err := titanql.Parse(q)
	if err != nil {
		return titanql.Doc{}, err
	}
	compiled, err := plan.Compile()
	if err != nil {
		return titanql.Doc{}, err
	}
	if s.store != nil {
		return compiled.Execute(s.store.Segments(), nil, workers), nil
	}
	return compiled.ExecuteEvents(s.Result.Events), nil
}

// Alerts replays the console log through the operator alerting engine
// with the given configuration (alert.DefaultConfig mirrors the paper's
// practices) and returns everything it raises.
func (s *Study) Alerts(cfg alert.Config) []alert.Alert {
	eng := alert.NewEngine(cfg)
	eng.Run(s.Result.Events)
	return eng.Alerts()
}

// JobLog returns the placement records.
func (s *Study) JobLog() []scheduler.Record { return s.Result.Jobs }

// Samples returns the per-job nvidia-smi samples.
func (s *Study) Samples() []nvsmi.JobSample { return s.Result.Samples }

// WriteReport renders every figure to w in paper order, serially.
func (s *Study) WriteReport(w io.Writer) {
	writeReport(w, s)
}

// WriteReportConcurrent renders the report's sections concurrently over a
// pool of at most workers goroutines, assembling them in paper order.
// Output is byte-identical to WriteReport for the same dataset.
func (s *Study) WriteReportConcurrent(w io.Writer, workers int) {
	writeReportConcurrent(w, s, workers)
}
