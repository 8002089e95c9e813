package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"titanre/internal/console"
	"titanre/internal/core"
	"titanre/internal/dataset"
	"titanre/internal/sim"
)

// batch-study: the batch pipeline over the first batchMonths of the
// 2013-06..2015-03 horizon. The set-up is titansim's half — simulate and
// write the dataset — and the timed study is titanreport's: parse, load,
// report, observation checks, one stage after another.
//
// The simulation is set-up rather than study because its cost is
// heavy-tailed across seeds (the scheduler retries its whole queue on
// every job end, so a seed whose workload keeps a long queue simulates
// up to four times slower), which would leave a study time that includes
// it too spread across seeds for any regression bound. It is still
// timed: setup_s and sim.run_s.

// setupRuns is how many times every workload sets up; setup_s is the
// median.
const setupRuns = 3

// batchMonths is the batch-study's history: a year, so that three
// set-ups and a study take well under a minute on a 2-core box.
const batchMonths = 12

// simConfig is the simulation for a seed over months of history from
// the study start (0: the full horizon).
func simConfig(seed int64, months int) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Seed = seed
	if months > 0 {
		cfg.End = cfg.Start.AddDate(0, months, 0)
	}
	return cfg
}

// studyRun is one timed study.
type studyRun struct {
	wall, cpu    time.Duration
	stages       map[string]time.Duration
	fastHitRatio float64
	passed       int
	observations []bool
	report       [32]byte
}

// runStudy runs the staged study over the dataset in dir, then checks
// its report digest and observation results against want's serial
// reference, so the digest also repeats across a run's studies. Failed
// output checks are booked on out; a stage error aborts the study.
func runStudy(dir string, cfg sim.Config, want genReport, rec *recorder, out *outcome) (studyRun, error) {
	r := studyRun{stages: map[string]time.Duration{}}
	runtime.GC() // every study starts from the same small heap
	c0, t0 := cpuTime(), time.Now()
	root := rec.begin("bench.study", 0, "")
	stage := func(name string, fn func() error) error {
		id := rec.begin(name, root, "")
		t := time.Now()
		err := fn()
		r.stages[name] += time.Since(t)
		rec.end(id)
		out.attempted++
		if err != nil {
			out.failed++
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}
	workers := runtime.GOMAXPROCS(0)

	var parsed []console.Event
	var loaded *sim.Result
	var study *core.Study
	h := sha256.New()
	err := chain(
		func() error {
			return stage("console.parse", func() error {
				data, err := os.ReadFile(filepath.Join(dir, dataset.ConsoleFile))
				if err != nil {
					return err
				}
				c := console.NewCorrelator()
				parsed, err = c.ParseBytes(data, workers)
				if n := c.FastHits + c.FastFallbacks; n > 0 {
					r.fastHitRatio = float64(c.FastHits) / float64(n)
				}
				return err
			})
		},
		func() error {
			return stage("dataset.load", func() error {
				var err error
				loaded, err = dataset.Load(dir, cfg)
				return err
			})
		},
		func() error {
			// The artifacts hold second-resolution times and rounded
			// figures, so the loaded dataset is checked against what they
			// encode: the console events as the log parses, and every
			// record count the generator wrote.
			return stage("bench.check", func() error {
				if core.EventsDigest(loaded.Events) != core.EventsDigest(parsed) {
					return fmt.Errorf("loaded console events differ from the parsed log")
				}
				parsed = nil
				got := genReport{Events: len(loaded.Events), Jobs: len(loaded.Jobs), Samples: len(loaded.Samples), Devices: len(loaded.Snapshot.Devices)}
				for _, j := range loaded.Jobs {
					got.JobNodes += len(j.Nodes)
				}
				if got.Events != want.Events || got.Jobs != want.Jobs || got.JobNodes != want.JobNodes ||
					got.Samples != want.Samples || got.Devices != want.Devices {
					return fmt.Errorf("loaded dataset %+v differs from the written one %+v", got, want)
				}
				study = core.FromResult(loaded)
				return nil
			})
		},
		func() error {
			return stage("core.report", func() error { study.WriteReportConcurrent(h, workers); return nil })
		},
		func() error {
			return stage("core.observations", func() error {
				for _, oc := range study.CheckObservations() {
					r.observations = append(r.observations, oc.Pass)
					if oc.Pass {
						r.passed++
					}
				}
				return nil
			})
		},
	)
	rec.end(root)
	r.wall, r.cpu = time.Since(t0), cpuTime()-c0
	copy(r.report[:], h.Sum(nil))
	if err != nil {
		return r, err
	}
	out.checkErr(sameHex("report", r.report, want.Report))
	out.checkErr(sameObservations(r.observations, want.Observations))
	return r, nil
}

// chain runs steps in order up to the first error.
func chain(steps ...func() error) error {
	for _, s := range steps {
		if err := s(); err != nil {
			return err
		}
	}
	return nil
}

func runBatch(o options) (*outcome, error) {
	out := newOutcome()
	months := o.months
	if months == 0 {
		months = batchMonths
	}
	cfg := simConfig(o.seed, months)

	var setups, sims, writes []float64
	var gen genReport
	var dir string
	for i := 0; i < setupRuns; i++ {
		if dir != "" {
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
		}
		dir = filepath.Join(o.work, "dataset"+strconv.Itoa(i))
		t := time.Now()
		var err error
		if gen, err = runChild("dataset", o.seed, months, dir); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
		sims = append(sims, gen.Sim.Seconds())
		writes = append(writes, gen.Write.Seconds())
	}
	// The reference every study is checked against, untimed.
	ref, err := runChild("reference", o.seed, months, dir)
	if err != nil {
		return nil, err
	}
	gen.Report, gen.Observations = ref.Report, ref.Observations
	// The study's cost follows the input volume, which varies with the
	// seed: the gated figures are per input record (console events plus
	// job-node placements).
	records := float64(gen.Events + gen.JobNodes)

	// Untraced studies until the run's time is spent (at least one); a
	// traced run adds one traced study and compares the two.
	var runs []studyRun
	start := time.Now()
	for len(runs) == 0 || (!o.trace && time.Since(start) < o.seconds) {
		r, err := runStudy(dir, cfg, gen, nil, out)
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
	}
	var traced studyRun
	var rec *recorder
	if o.trace {
		rec = newRecorder(true)
		var err error
		if traced, err = runStudy(dir, cfg, gen, rec, out); err != nil {
			return nil, err
		}
	}

	var walls, cpus []float64
	for _, r := range runs {
		walls = append(walls, r.wall.Seconds())
		cpus = append(cpus, float64(r.cpu))
	}
	study := median(walls)
	perM := 1e6 / records
	out.named["setup_s"] = median(setups)
	out.named["study_s"] = study
	out.e2e["setup_s"] = median(setups)
	out.e2e["latency_p50_ms"] = study * 1000 * perM
	out.e2e["latency_mean_ms"] = mean(walls) * 1000 * perM
	out.e2e["rate_per_s"] = records / study
	out.e2e["cpu_ns_per_unit"] = median(cpus) / records
	fmt.Printf("  studies: %d over %d events and %d job-node placements\n", len(runs), gen.Events, gen.JobNodes)

	if o.trace {
		spans := rec.snapshot()
		out.spans = spans
		lines := float64(gen.Events)
		l := out.layers
		l["sim.run_s"] = median(sims)
		l["console.encode_ns_per_line"] = float64(gen.Encode) / lines
		l["dataset.write_s"] = median(writes)
		l["console.parse_ns_per_line"] = float64(traced.stages["console.parse"]) / lines
		l["console.fast_hit_ratio"] = traced.fastHitRatio
		l["dataset.load_s"] = traced.stages["dataset.load"].Seconds()
		l["core.report_s"] = traced.stages["core.report"].Seconds()
		l["core.observations_s"] = traced.stages["core.observations"].Seconds()
		l["core.observations_passed"] = float64(traced.passed)
		l["bench.stage_self_share"] = stageSelfShare(spans)
		l["bench.trace_overhead_frac"] = traced.wall.Seconds()/study - 1
	}
	peak := peakRSSMB()
	out.named["peak_rss_mb"] = peak
	out.e2e["peak_rss_mb"] = peak
	return out, nil
}

// stageSelfShare is the sum of the stage spans' self times over the
// study span's duration: how much of study_s the stages account for.
func stageSelfShare(spans []span) float64 {
	self := selfTimes(spans)
	var root span
	var stages time.Duration
	for _, s := range spans {
		if s.Name == "bench.study" {
			root = s
		}
	}
	for _, s := range spans {
		if s.Parent == root.ID && root.ID != 0 {
			stages += self[s.ID]
		}
	}
	if root.dur() <= 0 {
		return 0
	}
	return float64(stages) / float64(root.dur())
}

// sameHex checks a digest against the reference's hex form.
func sameHex(what string, got [32]byte, want string) error {
	if hex.EncodeToString(got[:]) != want {
		return fmt.Errorf("%s: digest %x differs from the serial reference's %.12s", what, got[:6], want)
	}
	return nil
}

// sameObservations checks the observation results against the serial
// reference's, check by check.
func sameObservations(got, want []bool) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d observation checks, the serial reference has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("observation check %d passed=%v, the serial reference's passed=%v", i+1, got[i], want[i])
		}
	}
	return nil
}
