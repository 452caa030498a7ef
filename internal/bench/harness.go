// Package bench is the experiment harness: it regenerates every table
// and figure of the paper's evaluation section (Figs. 2-8, Tables
// II-III) by building emulated networks, driving calibrated workloads,
// and printing the same rows/series the paper reports. All lists the
// experiment index (fabricbench -list prints it).
package bench

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"strings"
	"time"

	"fabricsim/internal/costmodel"
	"fabricsim/internal/fabnet"
	"fabricsim/internal/gateway"
	"fabricsim/internal/metrics"
	"fabricsim/internal/policy"
	"fabricsim/internal/trace"
	"fabricsim/internal/workload"
)

// Options configures a harness run.
type Options struct {
	// Scale is the time-compression factor (default 0.1 = 10x faster).
	Scale float64
	// Duration is the load duration per data point in model time
	// (default 12s).
	Duration time.Duration
	// Quick trims sweeps for smoke runs and unit benchmarks.
	Quick bool
	// TxSize is the written value size (the paper's 1-byte default).
	TxSize int
	// Seed fixes workload randomness.
	Seed int64
	// JSONDir, when non-empty, makes experiments that support
	// machine-readable output write a BENCH_<id>.json file there, so
	// the performance trajectory can be tracked across commits.
	JSONDir string
	// Tracer, when non-nil, threads span recording through every network
	// the harness builds (fabricbench -trace / -obs).
	Tracer *trace.Tracer
	// OnCollector is called with each freshly-built metrics collector
	// before the load starts — the obs server re-points its /metrics
	// endpoint at the live run through this hook.
	OnCollector func(*metrics.Collector)
}

// SubSeed derives a stable per-component seed from Options.Seed: one
// -seed flag reproduces every randomized component of a run (workload
// arrivals, chaos schedule, link jitter) without correlating their
// random streams. Equal (seed, component) pairs always map to the same
// sub-seed.
func (o Options) SubSeed(component string) int64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(o.Seed))
	_, _ = h.Write(buf[:])
	_, _ = h.Write([]byte(component))
	return int64(h.Sum64() & (1<<63 - 1))
}

func (o Options) withDefaults() Options {
	if o.Scale <= 0 {
		o.Scale = 0.25
	}
	if o.Duration <= 0 {
		o.Duration = 12 * time.Second
		if o.Quick {
			o.Duration = 6 * time.Second
		}
	}
	if o.TxSize <= 0 {
		o.TxSize = 1
	}
	return o
}

// Point is one measured experiment data point.
type Point struct {
	Orderer  fabnet.OrdererType
	Policy   string
	Peers    int
	OSNs     int
	Channels int
	Rate     float64
	Window   int
	Summary  metrics.Summary
	Stats    workload.Stats
	// OrdererEgressBlocks/Bytes total the ordering service's deliver
	// pushes and catch-up fetches over the whole run — the dissemination
	// sweep's cost axis (O(peers) direct vs O(orgs) gossip).
	OrdererEgressBlocks uint64
	OrdererEgressBytes  uint64
}

// PointConfig describes one network + load combination.
type PointConfig struct {
	Orderer     fabnet.OrdererType
	OSNs        int
	Brokers     int
	ZooKeepers  int
	Peers       int
	Policy      policy.Policy
	PolicyLabel string
	Rate        float64
	// Channels shards the network into this many concurrently-ordered
	// channels ("ch1".."chN", all sharing Policy) and sprays the load
	// round-robin across them. 0 or 1 keeps the classic single channel.
	Channels int
	// Clients overrides the client-process count (0 = one per peer).
	Clients int
	// Window switches the load from the open-loop rate driver to the
	// windowed pipeline: each client keeps Window transactions in
	// flight through gateway.SubmitAsync and Rate is ignored. 0 keeps
	// the open loop.
	Window int
	// Committers sets the committer-pool width (parallel state-apply
	// workers per channel commit pipeline); 0 keeps the model default
	// (1, the serial committer).
	Committers int
	// Depth sets the commit-pipeline depth (blocks in flight per
	// channel); 0 keeps the model default (1, strictly serial).
	Depth int
	// KeySpace confines every transaction's writes to this many hot
	// keys, chaining them into shared conflict groups; 0 writes one
	// fresh key per transaction (the paper's no-contention workload).
	KeySpace int
	// EndorsersPerOrg deploys this many interchangeable endorsing
	// replicas per org (0 = 1, the classic one-peer-per-org topology).
	EndorsersPerOrg int
	// Balancer names the gateway replica-routing strategy
	// ("" = roundrobin).
	Balancer string
	// ChaincodeExec overrides Model.ChaincodeExecCPU when positive —
	// the compute-heavy-contract workloads of the endorse sweep.
	ChaincodeExec time.Duration
	// Perturbed slows the last N endorsing replicas down to
	// PerturbedCores cores (0 = homogeneous hardware).
	Perturbed      int
	PerturbedCores int
	// Gossip switches block dissemination from per-peer direct deliver
	// to org-leader deliver + push gossip + anti-entropy.
	Gossip bool
	// GossipFanout overrides the push fanout when positive.
	GossipFanout int
	// Reorder enables Fabric++-style conflict-aware ordering: OSNs
	// reorder each cut batch, early-abort read-write cycles, and
	// committers fan state application across true dependency chains.
	Reorder bool
	// Retry turns on the gateways' bounded conflict-retry loop (3
	// attempts, exponential backoff seeded from Options.Seed).
	Retry bool
	// Fn overrides the invoked chaincode function ("" keeps the blind
	// "write" default; "readwrite" produces RMW conflicts).
	Fn string
	// ZipfS skews key popularity with a Zipf(s) draw when > 1
	// (0 keeps the uniform draw).
	ZipfS float64
	// Profile selects a canned workload profile
	// (workload.ProfileSmallBank); "" keeps the KV put/get load.
	Profile string
}

// RunPoint builds the network, applies the load, and reduces metrics.
func RunPoint(ctx context.Context, pc PointConfig, opt Options) (Point, error) {
	opt = opt.withDefaults()
	model := costmodel.Default(opt.Scale)
	if pc.ChaincodeExec > 0 {
		model.ChaincodeExecCPU = pc.ChaincodeExec
	}
	col := metrics.NewCollector()
	if opt.OnCollector != nil {
		opt.OnCollector(col)
	}
	cfg := fabnet.Config{
		Orderer:                pc.Orderer,
		Tracer:                 opt.Tracer,
		NumOrderers:            pc.OSNs,
		NumKafkaBrokers:        pc.Brokers,
		NumZooKeepers:          pc.ZooKeepers,
		NumEndorsingPeers:      pc.Peers,
		EndorsersPerOrg:        pc.EndorsersPerOrg,
		Balancer:               pc.Balancer,
		PerturbedEndorsers:     pc.Perturbed,
		PerturbedEndorserCores: pc.PerturbedCores,
		NumClients:             pc.Clients,
		Policy:                 pc.Policy,
		Model:                  model,
		Collector:              col,
		CommitterPool:          pc.Committers,
		CommitDepth:            pc.Depth,
		Gossip: fabnet.GossipConfig{
			Enabled: pc.Gossip,
			Fanout:  pc.GossipFanout,
		},
		Reorder: pc.Reorder,
	}
	if pc.Retry {
		cfg.Retry = gateway.RetryConfig{
			MaxAttempts:    3,
			InitialBackoff: 20 * time.Millisecond,
			Jitter:         0.2,
			Seed:           opt.SubSeed("retry"),
		}
	}
	cfg.Channels = fabnet.NumberedChannels(pc.Channels)
	net, err := fabnet.Build(cfg)
	if err != nil {
		return Point{}, fmt.Errorf("bench: %w", err)
	}
	defer net.Stop()
	if err := net.Start(ctx); err != nil {
		return Point{}, fmt.Errorf("bench: %w", err)
	}
	wcfg := workload.Config{
		Rate:     pc.Rate,
		Duration: opt.Duration,
		TxSize:   opt.TxSize,
		Model:    model,
		Seed:     opt.Seed,
		KeySpace: pc.KeySpace,
		Fn:       pc.Fn,
		ZipfS:    pc.ZipfS,
		Profile:  pc.Profile,
	}
	if pc.Window > 0 {
		wcfg.Mode = workload.Pipeline
		wcfg.Window = pc.Window
		wcfg.Rate = 0
	}
	if pc.Channels > 1 {
		wcfg.Channels = net.ChannelIDs()
	}
	stats, err := workload.Run(ctx, net.Clients, wcfg)
	if err != nil {
		return Point{}, fmt.Errorf("bench: %w", err)
	}
	sum := col.Summarize(metrics.SummaryOptions{
		TimeScale:     model.TimeScale,
		RejectLatency: model.OrderTimeout,
	})
	channels := pc.Channels
	if channels < 1 {
		channels = 1
	}
	egressBlocks, egressBytes := net.OrdererEgress()
	return Point{
		Orderer:             pc.Orderer,
		Policy:              pc.PolicyLabel,
		Peers:               pc.Peers,
		OSNs:                pc.OSNs,
		Channels:            channels,
		Rate:                pc.Rate,
		Window:              pc.Window,
		Summary:             sum,
		Stats:               stats,
		OrdererEgressBlocks: egressBlocks,
		OrdererEgressBytes:  egressBytes,
	}, nil
}

// sweepRates returns the paper's arrival-rate sweep.
func sweepRates(quick bool) []float64 {
	if quick {
		return []float64{100, 250, 400}
	}
	return []float64{50, 100, 150, 200, 250, 300, 350, 400, 450}
}

// orderers returns the ordering services under comparison.
func orderers() []fabnet.OrdererType {
	return []fabnet.OrdererType{fabnet.Solo, fabnet.Kafka, fabnet.Raft}
}

// fprintf writes formatted output, ignoring the error like fmt.Printf.
func fprintf(w io.Writer, format string, args ...any) {
	_, _ = fmt.Fprintf(w, format, args...)
}

// secs renders a duration in seconds with 2 decimals ("-" for zero).
func secs(d time.Duration) string {
	if d == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f", d.Seconds())
}

// header prints an experiment banner.
func header(w io.Writer, title string) {
	fprintf(w, "\n%s\n%s\n", title, strings.Repeat("=", len(title)))
}

// PhaseStat is the machine-readable per-phase latency cell of the
// critical-path decomposition (model seconds).
type PhaseStat struct {
	P50Seconds float64 `json:"p50_s"`
	P99Seconds float64 `json:"p99_s"`
}

// phaseLatencyJSON flattens a summary's critical-path decomposition
// into JSON-ready per-phase p50/p99 cells, keyed by lifecycle phase.
func phaseLatencyJSON(sum metrics.Summary) map[string]PhaseStat {
	out := make(map[string]PhaseStat, len(metrics.PhaseOrdering()))
	for _, ph := range metrics.PhaseOrdering() {
		st := sum.PhaseLatency[ph]
		out[ph] = PhaseStat{P50Seconds: st.P50.Seconds(), P99Seconds: st.P99.Seconds()}
	}
	return out
}

// phaseColsHeader and phaseCols render the critical-path decomposition
// as aligned table columns — one "p50/p99" cell (model seconds) per
// lifecycle phase, in order.
func phaseColsHeader() string {
	var b strings.Builder
	for _, ph := range metrics.PhaseOrdering() {
		fprintf(&b, " %15s", ph+"(p50/p99)")
	}
	return b.String()
}

func phaseCols(sum metrics.Summary) string {
	var b strings.Builder
	for _, ph := range metrics.PhaseOrdering() {
		st := sum.PhaseLatency[ph]
		fprintf(&b, " %15s", fmt.Sprintf("%.3f/%.3f", st.P50.Seconds(), st.P99.Seconds()))
	}
	return b.String()
}

// Experiment is one runnable reproduction artifact.
type Experiment struct {
	// ID names the experiment on the fabricbench command line (fig2 ...
	// table3).
	ID string
	// Title is the paper artifact's caption.
	Title string
	// Run executes the experiment, writing its table to w.
	Run func(ctx context.Context, opt Options, w io.Writer) error
}

// All returns every paper experiment in paper order, plus the channel
// sweep (the scaling dimension the paper's Fabric deployment uses but
// does not isolate).
func All() []Experiment {
	return []Experiment{
		Fig2(), Fig3(), Fig4(), Fig5(), Fig6(), Fig7(),
		Table2(), Table3(), Fig8(), FigChannels(), FigPipeline(),
		FigCommit(), FigEndorse(), FigDissemination(), FigRecovery(),
		FigChaos(), FigContention(),
	}
}

// Ablations returns the non-paper parameter studies (BatchSize,
// BatchTimeout, transaction size).
func Ablations() []Experiment {
	return []Experiment{
		AblationBatchSize(), AblationBatchTimeout(), AblationTxSize(),
	}
}

// Get returns the experiment (paper or ablation) with the given ID.
func Get(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	for _, e := range Ablations() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
