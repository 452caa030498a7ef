// Command perfbench is fabricsim's benchmark. One run builds one
// workload's emulated network in process on the in-memory transport,
// drives it with a seeded load through the gateway's stage API
// (Propose → Endorse → Submit → Commit.Status), checks that the
// outcome is correct, and prints its metrics. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": N, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with
// tracing off. With -trace 1 they are the per-layer ones: a traced run
// (spans, metrics collector and CPU profile) plus host microloads that
// call single layers directly. The program under test is not modified;
// every layer is timed from outside.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload raft-or-fresh --seed 1 --seconds 15 --trace 0
//	bash perfbench/run.sh --spec > BENCHMARK.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"fabricsim/internal/fabnet"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spec     bool
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload name (see BENCHMARK.json)")
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&o.seconds, "seconds", runSeconds, "wall seconds of load to measure")
	fs.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	fs.BoolVar(&o.spec, "spec", false, "print BENCHMARK.json and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = traceFlag != 0
	if o.spec {
		if err := writeSpec(stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w, err := findWorkload(o.workload)
	if err != nil || o.seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: %v (seconds %v)\n", err, o.seconds)
		return 2
	}
	// One process per run, at most two host threads running Go code, so
	// host costs are comparable across machines with more cores.
	if runtime.NumCPU() > 2 {
		runtime.GOMAXPROCS(2)
	}
	var res result
	if o.trace {
		res, err = runLayers(w, o, stdout)
	} else {
		res, err = runEndToEnd(w, o, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object on the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// setupRounds is how many times a run builds and starts its network;
// setup_s is the median. The last round's network carries the load.
const setupRounds = 3

// setUp builds and starts the workload's network setupRounds times,
// stopping all but the last, and returns the last network with the
// median set-up time.
func setUp(cfg fabnet.Config, rounds int) (*fabnet.Network, time.Duration, error) {
	var times []time.Duration
	for i := 0; ; i++ {
		t0 := time.Now()
		net, err := fabnet.Build(cfg)
		if err != nil {
			return nil, 0, fmt.Errorf("build: %w", err)
		}
		if err := net.Start(context.Background()); err != nil {
			net.Stop()
			return nil, 0, fmt.Errorf("start: %w", err)
		}
		times = append(times, time.Since(t0))
		if i == rounds-1 {
			return net, quantileDur(times, 0.5), nil
		}
		net.Stop()
	}
}

// profileHz is the CPU profile sampling rate of traced runs.
const profileHz = 1000

// runLoad sets up the network, drives the load, and runs the
// correctness gate. The network is stopped on return. A non-nil prof
// receives a CPU profile of the load phase.
func runLoad(w workload, cfg fabnet.Config, seed int64, dur time.Duration, rounds int, prof io.Writer) (loadResult, time.Duration, error) {
	net, setup, err := setUp(cfg, rounds)
	if err != nil {
		return loadResult{}, 0, err
	}
	defer net.Stop()
	d := &driver{w: w, net: net, seed: seed, cc: w.chaincode()}
	if prof != nil {
		// The default 100 Hz gives too few samples at this host load to
		// split by package. Setting the rate first makes StartCPUProfile
		// keep it (and print a harmless warning to stderr).
		runtime.SetCPUProfileRate(profileHz)
		if err := pprof.StartCPUProfile(prof); err != nil {
			return loadResult{}, 0, fmt.Errorf("cpu profile: %w", err)
		}
	}
	res := d.run(dur)
	if prof != nil {
		pprof.StopCPUProfile()
	}
	_, res.egressBytes = net.OrdererEgress()
	res.blocks = net.Peers[0].Ledger().Height()
	if err := checkRun(net, w, res.txs); err != nil {
		return loadResult{}, 0, fmt.Errorf("correctness: %w", err)
	}
	if len(res.txs) == 0 {
		return loadResult{}, 0, errors.New("no transactions issued")
	}
	return res, setup, nil
}

// summary is the reduction of one load run to the end-to-end metrics.
type summary struct {
	attempted, failed, committed int
	firstErr                     error // of the first failed tx
	modelTPS                     float64
	latP50, latP99               float64 // model seconds
	latSamples                   int
	cpuPerTx                     float64 // µs
	allocsPerTx, bytesPerTx      float64
	wallPerModel                 float64
}

// warmupFrac is the share of the load window excluded from throughput
// and latency while pipelines fill.
const warmupFrac = 0.2

func summarize(res loadResult) summary {
	var s summary
	measureFrom := res.start.Add(time.Duration(float64(res.end.Sub(res.start)) * warmupFrac))
	var lats []time.Duration
	blocks := make(map[uint64]*blockCommits)
	for _, r := range res.txs {
		s.attempted++
		switch r.outcome {
		case outcomeCommitted:
			s.committed++
			if !r.end.Before(measureFrom) && !r.end.After(res.end) {
				b := blocks[r.block]
				if b == nil {
					b = &blockCommits{first: r.end}
					blocks[r.block] = b
				}
				b.txs++
				if r.end.Before(b.first) {
					b.first = r.end
				}
			}
			if !r.due.Before(measureFrom) && r.due.Before(res.end) {
				lats = append(lats, r.end.Sub(r.due))
			}
		case outcomeFailed:
			s.failed++
			if s.firstErr == nil {
				s.firstErr = r.err
			}
		}
	}
	s.modelTPS = commitRate(blocks)
	s.latSamples = len(lats)
	s.latP50 = quantileDur(lats, 0.50).Seconds() / timeScale
	s.latP99 = quantileDur(lats, 0.99).Seconds() / timeScale
	if s.committed > 0 {
		c := float64(s.committed)
		s.allocsPerTx = float64(res.host.allocs) / c
		s.bytesPerTx = float64(res.host.bytes) / c
	}
	if s.modelTPS > 0 && res.refKernel > 0 {
		// CPU per tx is the median CPU rate over the measured window's
		// slices divided by the commit rate in wall time, so a burst of
		// load from outside the process in one slice does not move it,
		// rescaled to the nominal host speed.
		rate := medianCPURate(res.cpuSamples, measureFrom, res.end)
		s.cpuPerTx = rate / (s.modelTPS / timeScale) * 1e6 * float64(refKernelNominal) / float64(res.refKernel)
	}
	modelSeconds := res.end.Sub(res.start).Seconds() / timeScale
	s.wallPerModel = res.drained.Sub(res.start).Seconds() / modelSeconds
	return s
}

// blockCommits is when a block's first commit reached the driver and
// how many of the driver's transactions it committed.
type blockCommits struct {
	first time.Time
	txs   int
}

// commitRate is committed tx per model second between the first and the
// last block seen in the window. Commits arrive a block at a time, so
// counting them over a fixed window would quantize the rate to whole
// blocks; the first block's transactions predate the measured span and
// are left out.
func commitRate(blocks map[uint64]*blockCommits) float64 {
	if len(blocks) < 2 {
		return 0
	}
	var first, last *blockCommits
	total := 0
	for _, b := range blocks {
		total += b.txs
		if first == nil || b.first.Before(first.first) {
			first = b
		}
		if last == nil || b.first.After(last.first) {
			last = b
		}
	}
	return float64(total-first.txs) / (last.first.Sub(first.first).Seconds() / timeScale)
}

// runEndToEnd is a -trace 0 run: tracing off, end-to-end metrics.
func runEndToEnd(w workload, o options, out io.Writer) (result, error) {
	res, setup, err := runLoad(w, w.config(), o.seed, secondsDur(o.seconds), setupRounds, nil)
	if err != nil {
		return result{}, err
	}
	s := summarize(res)
	if s.committed == 0 {
		return result{}, errors.New("nothing committed")
	}
	m := map[string]float64{
		"model_tps":           s.modelTPS,
		"model_latency_p50_s": s.latP50,
		"model_latency_p99_s": s.latP99,
		"committed_frac":      float64(s.committed) / float64(s.attempted),
		"host_cpu_us_per_tx":  s.cpuPerTx,
		"allocs_per_tx":       s.allocsPerTx,
		"alloc_bytes_per_tx":  s.bytesPerTx,
		"peak_rss_mb":         peakRSSMB(),
		"peak_goroutines":     float64(res.peakGor),
		"setup_s":             setup.Seconds(),
		"wall_s_per_model_s":  s.wallPerModel,
	}
	s.describe(out, fmt.Sprintf("workload %s seed %d", w.name, o.seed))
	return report(out, endToEndMetrics, m, s)
}

// describe prints the run's transaction counts and its first failure.
func (s summary) describe(out io.Writer, label string) {
	fmt.Fprintf(out, "%s: %d attempted, %d committed, %d failed, %d latency samples\n",
		label, s.attempted, s.committed, s.failed, s.latSamples)
	if s.firstErr != nil {
		fmt.Fprintf(out, "  first failure: %v\n", s.firstErr)
	}
}

// report prints each metric of defs, with the end-to-end metric and
// workload a per-layer metric should move, and builds the result.
func report(out io.Writer, defs []metricDef, values map[string]float64, s summary) (result, error) {
	res := result{Correct: true, Attempted: s.attempted, Failed: s.failed, Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return result{}, fmt.Errorf("metric %s not measured", d.name)
		}
		fmt.Fprintf(out, "  %-36s %14.6g %-6s", d.name, v, d.unit)
		if d.moves != "" {
			fmt.Fprintf(out, " moves %s (%s)", d.moves, d.on)
		}
		fmt.Fprintln(out)
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return res, nil
}

// cpuSlice is the length of the slices medianCPURate takes the median
// over.
const cpuSlice = time.Second

// medianCPURate is the median, over consecutive slices of about
// cpuSlice within [from, to], of process CPU seconds per wall second.
func medianCPURate(samples []cpuSample, from, to time.Time) float64 {
	var rates []float64
	var prev *cpuSample
	for i := range samples {
		s := &samples[i]
		if s.at.Before(from) || s.at.After(to) {
			continue
		}
		if prev == nil {
			prev = s
			continue
		}
		if dt := s.at.Sub(prev.at); dt >= cpuSlice {
			rates = append(rates, (s.cpu-prev.cpu).Seconds()/dt.Seconds())
			prev = s
		}
	}
	if len(rates) == 0 {
		return 0
	}
	sort.Float64s(rates)
	return rates[len(rates)/2]
}

func secondsDur(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// quantileDur returns the q-quantile (nearest rank) of ds, sorting ds.
func quantileDur(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[int(q*float64(len(ds)-1)+0.5)]
}
