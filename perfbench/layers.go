package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"fabricsim/internal/metrics"
	"fabricsim/internal/trace"
)

// outDir receives the traced run's spans and CPU profile, relative to
// the directory the benchmark runs in.
const outDir = ".bench_build/out"

// maxTraces bounds the spans the traced run retains (the most recent
// transactions); that is far more samples than the percentiles need.
const maxTraces = 8192

// runLayers is a -trace 1 run. An untraced reference load of half the
// run length gives host CPU per tx without tracing; the traced load
// (spans, metrics collector and CPU profile) gives the per-layer
// numbers and the tracing overhead; host microloads then time single
// layers directly.
func runLayers(w workload, o options, out io.Writer) (result, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return result{}, err
	}
	dur := secondsDur(o.seconds)
	ref, _, err := runLoad(w, w.config(), o.seed, dur/2, 1, nil)
	if err != nil {
		return result{}, fmt.Errorf("untraced reference: %w", err)
	}
	refSum := summarize(ref)

	cfg := w.config()
	tr := trace.New(maxTraces)
	col := metrics.NewCollector()
	cfg.Tracer, cfg.Collector = tr, col
	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", w.name, o.seed))
	prof, err := os.Create(base + ".cpu.pprof")
	if err != nil {
		return result{}, err
	}
	res, _, err := runLoad(w, cfg, o.seed, dur, 1, prof)
	if cerr := prof.Close(); err == nil && cerr != nil {
		err = cerr
	}
	if err != nil {
		return result{}, fmt.Errorf("traced run: %w", err)
	}
	s := summarize(res)
	if s.committed == 0 || refSum.committed == 0 {
		return result{}, fmt.Errorf("nothing committed")
	}
	if err := writeSpans(base+".spans.json", tr); err != nil {
		return result{}, err
	}

	m := make(map[string]float64)
	driverLayer(m, res)
	spanLayers(m, tr)
	collectorLayers(m, col, res, s.committed)
	m["trace.overhead_frac"] = 0
	if refSum.cpuPerTx > 0 {
		m["trace.overhead_frac"] = s.cpuPerTx/refSum.cpuPerTx - 1
	}
	shares, err := hostShares(prof.Name())
	if err != nil {
		return result{}, err
	}
	for pkg, v := range shares {
		m["host_share."+pkg] = v
	}
	if err := microloads(m, w, o.seed); err != nil {
		return result{}, fmt.Errorf("microloads: %w", err)
	}

	s.describe(out, fmt.Sprintf("workload %s seed %d traced (spans and profile in %s.*)", w.name, o.seed, base))
	return report(out, layerMetrics, m, s)
}

// modelSeconds converts a wall duration to model seconds.
func modelSeconds(d time.Duration) float64 { return d.Seconds() / timeScale }

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// driverLayer reduces what the driver timed around the gateway stage
// calls.
func driverLayer(m map[string]float64, res loadResult) {
	var genLag []time.Duration
	attempts, issued := 0, 0
	for _, r := range res.txs {
		if r.attempts == 0 {
			continue // skipped arrival
		}
		genLag = append(genLag, r.issued.Sub(r.due))
		attempts += r.attempts
		issued++
	}
	m["driver.gen_lag_p99_ms"] = msOf(quantileDur(genLag, 0.99))
	m["driver.timer_lag_p99_ms"] = msOf(quantileDur(res.timerLag, 0.99))
	m["driver.ref_kernel_us"] = float64(res.refKernel) / float64(time.Microsecond)
	if issued > 0 {
		m["gateway.attempts_per_tx"] = float64(attempts) / float64(issued)
	}
	var endorse, submit, wait []time.Duration
	for _, st := range res.stages {
		endorse = append(endorse, st.endorse)
		submit = append(submit, st.submit)
		wait = append(wait, st.commitWait)
	}
	m["gateway.endorse_p50_s"] = modelSeconds(quantileDur(endorse, 0.5))
	m["gateway.endorse_p99_s"] = modelSeconds(quantileDur(endorse, 0.99))
	m["gateway.submit_p50_s"] = modelSeconds(quantileDur(submit, 0.5))
	m["gateway.commit_wait_p50_s"] = modelSeconds(quantileDur(wait, 0.5))
	m["gateway.commit_wait_p99_s"] = modelSeconds(quantileDur(wait, 0.99))
}

// spanLayers reduces the spans the program's own instrumentation
// recorded: endorser, orderer and raft timings.
func spanLayers(m map[string]float64, tr *trace.Tracer) {
	var execute, queue, ingress, residency, consensus []time.Duration
	proposals := 0
	for _, id := range tr.TraceIDs() {
		for _, sp := range tr.Spans(id) {
			switch sp.Name {
			case trace.SpanGatewayPropose:
				proposals++
			case trace.SpanEndorserExecute:
				execute = append(execute, sp.Duration())
				if q, err := time.ParseDuration(sp.Attrs["queue-wait"]); err == nil {
					queue = append(queue, q)
				}
			case trace.SpanOrdererIngress:
				ingress = append(ingress, sp.Duration())
			case trace.SpanOrdererResidency:
				residency = append(residency, sp.Duration())
			case trace.SpanRaftConsensus:
				consensus = append(consensus, sp.Duration())
			}
		}
	}
	m["endorser.execute_p50_s"] = modelSeconds(quantileDur(execute, 0.5))
	m["endorser.queue_wait_p50_s"] = modelSeconds(quantileDur(queue, 0.5))
	m["endorser.endorsements_per_tx"] = 0
	if proposals > 0 {
		m["endorser.endorsements_per_tx"] = float64(len(execute)) / float64(proposals)
	}
	m["orderer.ingress_p50_s"] = modelSeconds(quantileDur(ingress, 0.5))
	m["orderer.residency_p50_s"] = modelSeconds(quantileDur(residency, 0.5))
	m["raft.consensus_p50_s"] = modelSeconds(quantileDur(consensus, 0.5))
	m["raft.consensus_p99_s"] = modelSeconds(quantileDur(consensus, 0.99))
}

// collectorLayers reduces the metrics collector's summary: phases,
// blocks, commit stages, conflicts and gossip.
func collectorLayers(m map[string]float64, col *metrics.Collector, res loadResult, committed int) {
	sum := col.Summarize(metrics.SummaryOptions{TimeScale: timeScale})
	m["orderer.block_txs_avg"] = sum.AvgBlockSize
	m["orderer.block_time_s"] = sum.BlockTime.Seconds()
	m["orderer.egress_bytes_per_tx"] = float64(res.egressBytes) / float64(committed)
	ph := sum.PhaseLatency
	m["phase.order_p50_s"] = ph[metrics.PhaseOrder].P50.Seconds()
	m["phase.order_p99_s"] = ph[metrics.PhaseOrder].P99.Seconds()
	m["phase.validate_p50_s"] = ph[metrics.PhaseValidate].P50.Seconds()
	m["phase.validate_p99_s"] = ph[metrics.PhaseValidate].P99.Seconds()
	m["committer.vscc_p50_s"] = sum.VSCCStage.P50.Seconds()
	m["committer.apply_p50_s"] = sum.ApplyStage.P50.Seconds()
	m["committer.append_p50_s"] = sum.AppendStage.P50.Seconds()
	m["committer.commit_lag_p99_s"] = sum.CommitLag.P99.Seconds()

	// Conflict counts over every block the observing peer committed.
	// WastedValidate is already model time (the modeled MVCC cost of
	// each aborted tx), unlike the wall-time stage durations.
	var txs, mvcc, early int
	var wasted time.Duration
	for _, ev := range col.CommitStages() {
		txs += ev.Txs
		mvcc += ev.MVCCAborts
		early += ev.EarlyAborts
		wasted += ev.WastedValidate
	}
	m["committer.mvcc_aborts_per_tx"], m["orderer.early_aborts_per_tx"], m["committer.wasted_validate_ms_per_tx"] = 0, 0, 0
	if txs > 0 {
		m["committer.mvcc_aborts_per_tx"] = float64(mvcc) / float64(txs)
		m["orderer.early_aborts_per_tx"] = float64(early) / float64(txs)
		m["committer.wasted_validate_ms_per_tx"] = msOf(wasted) / float64(txs)
	}
	m["gossip.duplicates_per_block"] = 0
	if res.blocks > 0 {
		m["gossip.duplicates_per_block"] = float64(sum.GossipDuplicates) / float64(res.blocks)
	}
	m["gossip.anti_entropy_blocks"] = float64(sum.AntiEntropyBlocks)
}

// writeSpans dumps every retained trace as JSON.
func writeSpans(path string, tr *trace.Tracer) error {
	var spans []trace.Span
	for _, id := range tr.TraceIDs() {
		spans = append(spans, tr.Spans(id)...)
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
