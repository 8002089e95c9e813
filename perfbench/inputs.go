package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"titanre/internal/console"
	"titanre/internal/core"
	"titanre/internal/dataset"
	"titanre/internal/sim"
)

// Inputs. The simulator runs in a child process — this binary, started
// with generatorEnv set, the part titansim plays for a user — that
// writes the encoded console log (live workloads) or the whole dataset
// (batch-study) into the run's scratch directory, so the memory the
// simulation needs stays out of the measured process and its peak RSS.

// generatorEnv, when set to "<log|dataset|reference> <seed> <months>
// <path>", makes the binary the input generator instead of the
// benchmark.
const generatorEnv = "PERFBENCH_GENERATE"

// genReport is what the generator reports on its standard output.
type genReport struct {
	Sim    time.Duration `json:"sim_ns"`
	Encode time.Duration `json:"encode_ns"`
	Write  time.Duration `json:"write_ns"` // dataset.Write (datasets only)
	// The dataset's record counts, which a load must reproduce.
	Events   int `json:"events"`
	Jobs     int `json:"jobs"`
	JobNodes int `json:"job_nodes"` // node placements over all jobs
	Samples  int `json:"samples"`
	Devices  int `json:"devices"`
	// The serial reference study over a written dataset (reference
	// only): its report digest and which observation checks passed.
	Report       string `json:"report,omitempty"`
	Observations []bool `json:"observations,omitempty"`
}

// runGenerator simulates the history spec names and writes it.
func runGenerator(spec string) error {
	var kind, path string
	var seed int64
	var months int
	if _, err := fmt.Sscan(spec, &kind, &seed, &months, &path); err != nil {
		return fmt.Errorf("%s=%q: %w", generatorEnv, spec, err)
	}
	if kind == "reference" {
		g, err := referenceStudy(path, simConfig(seed, months))
		if err != nil {
			return err
		}
		return json.NewEncoder(os.Stdout).Encode(g)
	}
	t := time.Now()
	res := sim.Run(simConfig(seed, months))
	g := genReport{Sim: time.Since(t), Events: len(res.Events), Jobs: len(res.Jobs),
		Samples: len(res.Samples), Devices: len(res.Snapshot.Devices)}
	for _, j := range res.Jobs {
		g.JobNodes += len(j.Nodes)
	}
	t = time.Now()
	var buf bytes.Buffer
	if err := console.WriteLog(&buf, res.Events); err != nil {
		return err
	}
	g.Encode = time.Since(t)
	switch kind {
	case "log":
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			return err
		}
	case "dataset":
		buf = bytes.Buffer{}
		t = time.Now()
		if err := dataset.Write(path, res); err != nil {
			return err
		}
		g.Write = time.Since(t)
	default:
		return fmt.Errorf("%s=%q: unknown kind %q", generatorEnv, spec, kind)
	}
	return json.NewEncoder(os.Stdout).Encode(g)
}

// referenceStudy is the timed study's reference, taken over the dataset
// in dir on the serial paths — a one-worker load and the serial
// WriteReport, which the concurrent ones must reproduce byte for byte.
func referenceStudy(dir string, cfg sim.Config) (genReport, error) {
	res, err := dataset.LoadWorkers(dir, cfg, 1)
	if err != nil {
		return genReport{}, err
	}
	s := core.FromResult(res)
	h := sha256.New()
	s.WriteReport(h)
	g := genReport{Report: hex.EncodeToString(h.Sum(nil))}
	for _, oc := range s.CheckObservations() {
		g.Observations = append(g.Observations, oc.Pass)
	}
	return g, nil
}

// runChild runs the generator in a child process and waits for it.
func runChild(kind string, seed int64, months int, path string) (genReport, error) {
	var g genReport
	exe, err := os.Executable()
	if err != nil {
		return g, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), fmt.Sprintf("%s=%s %d %d %s", generatorEnv, kind, seed, months, path))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return g, fmt.Errorf("input generator: %w", err)
	}
	if err := json.Unmarshal(stdout, &g); err != nil {
		return g, fmt.Errorf("input generator: %w", err)
	}
	return g, nil
}

// inputs are a live workload's generated inputs.
type inputs struct {
	cfg    sim.Config
	log    []byte
	events []console.Event // the log parsed: the history the stack receives
	setup  []float64       // seconds per set-up
	gen    genReport
	parseT time.Duration
	// fastHit is the parser's fast-path share on the log.
	fastHit float64
}

// generate is a live workload's set-up: simulate and encode the history
// in the generator, read and parse the log, then run extra (the
// live-query prefill). It sets up setupRuns times; every set-up yields
// the same inputs and the last is kept. undo, when non-nil, releases
// the previous set-up's resources before the next one starts, outside
// the timed interval.
func generate(work string, seed int64, months int, extra func(in *inputs) error, undo func() error) (*inputs, error) {
	in := &inputs{cfg: simConfig(seed, months)}
	for i := 0; i < setupRuns; i++ {
		if i > 0 && undo != nil {
			if err := undo(); err != nil {
				return nil, err
			}
		}
		in.events, in.log = nil, nil
		runtime.GC()
		path := filepath.Join(work, "input"+strconv.Itoa(i)+".log")
		t := time.Now()
		var err error
		if in.gen, err = runChild("log", seed, months, path); err != nil {
			return nil, err
		}
		if in.log, err = os.ReadFile(path); err != nil {
			return nil, err
		}
		if err := os.Remove(path); err != nil {
			return nil, err
		}
		tp := time.Now()
		c := console.NewCorrelator()
		if in.events, err = c.ParseBytes(in.log, runtime.GOMAXPROCS(0)); err != nil {
			return nil, err
		}
		in.parseT = time.Since(tp)
		if n := c.FastHits + c.FastFallbacks; n > 0 {
			in.fastHit = float64(c.FastHits) / float64(n)
		}
		if extra != nil {
			if err := extra(in); err != nil {
				return nil, err
			}
		}
		in.setup = append(in.setup, time.Since(t).Seconds())
	}
	return in, nil
}

// parseCheck checks that the parsed history re-encodes to the exact
// log bytes, so the references computed from it describe what the
// stack is sent.
func parseCheck(in *inputs, out *outcome) {
	cw := &cmpWriter{want: in.log}
	err := console.WriteLog(cw, in.events)
	if err == nil && len(cw.want) > 0 {
		err = errNoRoundTrip
	}
	out.checkErr(err)
}

var errNoRoundTrip = errors.New("the generated log does not round-trip through the parser")

// cmpWriter compares the bytes written to it with want, in order,
// without holding a second copy.
type cmpWriter struct{ want []byte }

func (c *cmpWriter) Write(p []byte) (int, error) {
	if !bytes.HasPrefix(c.want, p) {
		return 0, errNoRoundTrip
	}
	c.want = c.want[len(p):]
	return len(p), nil
}

// inputLayers are the set-up's per-layer figures.
func inputLayers(l map[string]float64, in *inputs) {
	lines := float64(max(len(in.events), 1))
	l["sim.run_s"] = in.gen.Sim.Seconds()
	l["console.encode_ns_per_line"] = float64(in.gen.Encode) / lines
	l["console.parse_ns_per_line"] = float64(in.parseT) / lines
	if _, ok := l["console.fast_hit_ratio"]; !ok {
		l["console.fast_hit_ratio"] = in.fastHit
	}
}
