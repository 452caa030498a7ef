package main

import (
	"encoding/json"
	"io"
)

// metricDef names one reported metric. For per-layer metrics, moves and
// on record which end-to-end metric the layer metric should move and on
// which workload it does most of its work.
type metricDef struct {
	name   string
	unit   string
	better string  // "higher" or "lower"
	bound  float64 // end-to-end only: tolerated worsening, share of the median
	moves  string
	on     string
}

// runSeconds is the wall time of load in one run.
const runSeconds = 15

// endToEndMetrics are measured with tracing off over the load phase;
// set-up counts only in setup_s and peak_rss_mb.
var endToEndMetrics = []metricDef{
	{name: "model_tps", unit: "tx/s", better: "higher", bound: 0.05},
	{name: "model_latency_p50_s", unit: "s", better: "lower", bound: 0.1},
	{name: "model_latency_p99_s", unit: "s", better: "lower", bound: 0.15},
	{name: "committed_frac", unit: "ratio", better: "higher", bound: 0.02},
	// Host CPU per tx still varies by about 10% between runs on a shared
	// host after rescaling to the reference kernel's speed, so it gets
	// the widest bound.
	{name: "host_cpu_us_per_tx", unit: "us", better: "lower", bound: 0.25},
	{name: "allocs_per_tx", unit: "count", better: "lower", bound: 0.05},
	{name: "alloc_bytes_per_tx", unit: "B", better: "lower", bound: 0.05},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.2},
	{name: "peak_goroutines", unit: "count", better: "lower", bound: 0.2},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "wall_s_per_model_s", unit: "ratio", better: "lower", bound: 0.15},
}

// hostSharePkgs are the fabricsim/internal packages a traced run's CPU
// profile can credit; "runtime" takes samples with no fabricsim frame.
var hostSharePkgs = []string{
	"ca", "chaincode", "client", "costmodel", "fabcrypto", "fabnet", "gateway",
	"gossip", "kafka", "ledger", "metrics", "msp", "orderer", "peer", "policy",
	"raft", "rwdep", "simcpu", "statedb", "trace", "transport", "types",
	"zookeeper", "runtime",
}

const (
	allWL   = "all"
	raftWL  = "raft-or-fresh"
	andWL   = "and-gossip-kafka"
	bankWL  = "smallbank-reorder"
	hotWL   = "hotkey-overwrite"
	lat50   = "model_latency_p50_s"
	lat99   = "model_latency_p99_s"
	tps     = "model_tps"
	cpuTx   = "host_cpu_us_per_tx"
	bytesTx = "alloc_bytes_per_tx"
)

// layerMetrics are the per-layer metrics of a -trace 1 run.
var layerMetrics = func() []metricDef {
	defs := []metricDef{
		{name: "driver.gen_lag_p99_ms", unit: "ms", better: "lower", moves: lat99, on: andWL},
		{name: "driver.timer_lag_p99_ms", unit: "ms", better: "lower", moves: tps, on: allWL},
		{name: "driver.ref_kernel_us", unit: "us", better: "lower", moves: cpuTx, on: allWL},
		{name: "gateway.propose_host_us", unit: "us", better: "lower", moves: cpuTx, on: allWL},
		{name: "gateway.endorse_p50_s", unit: "s", better: "lower", moves: lat50, on: andWL},
		{name: "gateway.endorse_p99_s", unit: "s", better: "lower", moves: lat99, on: andWL},
		{name: "gateway.submit_p50_s", unit: "s", better: "lower", moves: lat50, on: raftWL},
		{name: "gateway.commit_wait_p50_s", unit: "s", better: "lower", moves: tps, on: raftWL},
		{name: "gateway.commit_wait_p99_s", unit: "s", better: "lower", moves: tps, on: hotWL},
		{name: "gateway.attempts_per_tx", unit: "count", better: "lower", moves: "committed_frac", on: bankWL},
		{name: "endorser.execute_p50_s", unit: "s", better: "lower", moves: lat50, on: andWL},
		{name: "endorser.queue_wait_p50_s", unit: "s", better: "lower", moves: lat50, on: andWL},
		{name: "endorser.endorsements_per_tx", unit: "count", better: "lower", moves: cpuTx, on: andWL},
		{name: "orderer.ingress_p50_s", unit: "s", better: "lower", moves: lat50, on: raftWL},
		{name: "orderer.residency_p50_s", unit: "s", better: "lower", moves: lat50, on: andWL},
		{name: "orderer.block_txs_avg", unit: "count", better: "higher", moves: tps, on: raftWL},
		{name: "orderer.block_time_s", unit: "s", better: "lower", moves: tps, on: raftWL},
		{name: "orderer.egress_bytes_per_tx", unit: "B", better: "lower", moves: bytesTx, on: raftWL},
		{name: "orderer.early_aborts_per_tx", unit: "ratio", better: "lower", moves: "committed_frac", on: bankWL},
		{name: "raft.consensus_p50_s", unit: "s", better: "lower", moves: lat50, on: raftWL},
		{name: "raft.consensus_p99_s", unit: "s", better: "lower", moves: lat99, on: raftWL},
		{name: "phase.order_p50_s", unit: "s", better: "lower", moves: lat50, on: andWL},
		{name: "phase.order_p99_s", unit: "s", better: "lower", moves: lat99, on: andWL},
		{name: "committer.vscc_p50_s", unit: "s", better: "lower", moves: tps, on: raftWL},
		{name: "committer.apply_p50_s", unit: "s", better: "lower", moves: tps, on: hotWL},
		{name: "committer.append_p50_s", unit: "s", better: "lower", moves: tps, on: raftWL},
		{name: "phase.validate_p50_s", unit: "s", better: "lower", moves: tps, on: raftWL},
		{name: "phase.validate_p99_s", unit: "s", better: "lower", moves: tps, on: hotWL},
		{name: "committer.mvcc_aborts_per_tx", unit: "ratio", better: "lower", moves: tps, on: bankWL},
		{name: "committer.wasted_validate_ms_per_tx", unit: "ms", better: "lower", moves: tps, on: bankWL},
		{name: "committer.commit_lag_p99_s", unit: "s", better: "lower", moves: lat99, on: andWL},
		{name: "gossip.duplicates_per_block", unit: "count", better: "lower", moves: bytesTx, on: andWL},
		{name: "gossip.anti_entropy_blocks", unit: "count", better: "lower", moves: lat99, on: andWL},
		{name: "transport.call_ns", unit: "ns", better: "lower", moves: cpuTx, on: andWL},
		{name: "transport.call_allocs", unit: "count", better: "lower", moves: cpuTx, on: andWL},
		{name: "transport.new_link_bytes", unit: "B", better: "lower", moves: "peak_rss_mb", on: allWL},
		{name: "simcpu.execute_ns", unit: "ns", better: "lower", moves: cpuTx, on: allWL},
		{name: "simcpu.execute_allocs", unit: "count", better: "lower", moves: cpuTx, on: allWL},
		{name: "types.block_decode_ns_per_tx", unit: "ns", better: "lower", moves: cpuTx, on: raftWL},
		{name: "types.block_decode_allocs_per_tx", unit: "count", better: "lower", moves: cpuTx, on: raftWL},
		{name: "types.peek_envelope_ns", unit: "ns", better: "lower", moves: cpuTx, on: bankWL},
		{name: "ledger.commit_fresh_ns_per_tx", unit: "ns", better: "lower", moves: cpuTx, on: raftWL},
		{name: "ledger.commit_fresh_allocs_per_tx", unit: "count", better: "lower", moves: cpuTx, on: raftWL},
		{name: "ledger.commit_hot_ns_per_tx", unit: "ns", better: "lower", moves: cpuTx, on: hotWL},
		{name: "ledger.commit_hot_bytes_per_tx", unit: "B", better: "lower", moves: bytesTx, on: hotWL},
		{name: "statedb.apply_ns_per_write", unit: "ns", better: "lower", moves: cpuTx, on: allWL},
		{name: "rwdep.schedule_ns_per_tx", unit: "ns", better: "lower", moves: cpuTx, on: bankWL},
		{name: "rwdep.chains_ns_per_tx", unit: "ns", better: "lower", moves: cpuTx, on: bankWL},
		{name: "trace.overhead_frac", unit: "ratio", better: "lower", moves: cpuTx, on: allWL},
	}
	for _, pkg := range hostSharePkgs {
		defs = append(defs, metricDef{name: "host_share." + pkg, unit: "ratio", better: "lower", moves: cpuTx, on: allWL})
	}
	return defs
}()

// The BENCHMARK.json schema.
type specFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []specMetric   `json:"end_to_end"`
	PerLayer   []specLayer    `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type specLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// writeSpec prints BENCHMARK.json from the tables above, so the file
// and the program cannot disagree on names, units or workloads.
func writeSpec(out io.Writer) error {
	s := specFile{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		s.Workloads = append(s.Workloads, specWorkload{Name: w.name, Why: w.why})
	}
	for _, m := range endToEndMetrics {
		s.EndToEnd = append(s.EndToEnd, specMetric{Name: m.name, Unit: m.unit, Better: m.better, Bound: m.bound})
	}
	for _, m := range layerMetrics {
		s.PerLayer = append(s.PerLayer, specLayer{Name: m.name, Unit: m.unit, Better: m.better})
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
