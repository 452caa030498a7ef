package gateway

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"fabricsim/internal/metrics"
	"fabricsim/internal/peer"
	"fabricsim/internal/trace"
	"fabricsim/internal/types"
)

// TestInvokeRetryRecordsAttempts is the retry-accounting regression
// test: forced MVCC conflicts must leave one TxRecord per attempt with
// the attempt number set, the summary must count the retried
// transaction and report its final-attempt latency (which excludes
// retry backoff), and the tracer must stitch all attempts under one
// TraceID whose critical path surfaces the backoff gap.
func TestInvokeRetryRecordsAttempts(t *testing.T) {
	tr := trace.New(0)
	col := metrics.NewCollector()
	var calls atomic.Int64
	// retrySleep scales by the stub model's TimeScale (0.01), so each of
	// the two backoffs sleeps ~4ms of wall time.
	backoff := 400 * time.Millisecond
	scaledBackoff := 4 * time.Millisecond
	s := newStubNet(t, func(cfg *Config) {
		cfg.Collector = col
		cfg.Tracer = tr
		cfg.Retry = RetryConfig{
			MaxAttempts:    3,
			InitialBackoff: backoff,
			MaxBackoff:     backoff,
		}
	}, nil)
	s.commitOutcome = func(id types.TxID) peer.CommitEvent {
		code := types.ValidationMVCCConflict
		if calls.Add(1) >= 3 {
			code = types.ValidationValid
		}
		now := time.Now().UnixNano()
		return peer.CommitEvent{TxID: id, Code: code, BlockNum: 7,
			OrderedTime: now, CommitTime: now}
	}

	start := time.Now()
	st, err := s.gw.Invoke(context.Background(), "", "bench", "write",
		[][]byte{[]byte("k"), []byte("v")})
	if err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start)
	if !st.Committed {
		t.Fatalf("status = %+v", st)
	}

	// One TxRecord per attempt, attempt numbers 1..3.
	attempts := map[int]int{}
	for _, r := range col.Records() {
		attempts[r.Attempt]++
	}
	for a := 1; a <= 3; a++ {
		if attempts[a] != 1 {
			t.Fatalf("attempt histogram = %v, want one record each for 1..3", attempts)
		}
	}

	sum := col.Summarize(metrics.SummaryOptions{
		TimeScale:   1,
		WindowStart: start.Add(-time.Second),
		WindowEnd:   time.Now().Add(time.Second),
	})
	if sum.RetriedTxs != 1 {
		t.Fatalf("RetriedTxs = %d, want 1", sum.RetriedTxs)
	}
	if sum.FinalAttemptLatency.Count != 1 {
		t.Fatalf("FinalAttemptLatency.Count = %d, want 1", sum.FinalAttemptLatency.Count)
	}
	// Final-attempt latency excludes the two backoff sleeps the invoke
	// wall time includes.
	if got := sum.FinalAttemptLatency.Avg; got >= wall-scaledBackoff {
		t.Fatalf("final-attempt latency %s not below invoke wall %s minus backoff", got, wall)
	}

	// All three attempts share one trace; the committed TxID resolves to it.
	if n := tr.Len(); n != 1 {
		t.Fatalf("traces = %d, want 1 (retries must bind, not mint)", n)
	}
	tid, ok := tr.Lookup(string(st.TxID))
	if !ok {
		t.Fatalf("final TxID %s has no trace binding", st.TxID)
	}
	cp, ok := tr.CriticalPath(tid)
	if !ok {
		t.Fatal("no critical path for retried trace")
	}
	var sawBackoff bool
	for _, p := range cp.Phases {
		if p.Name == "retry-backoff" && p.Duration >= scaledBackoff {
			sawBackoff = true
		}
	}
	if !sawBackoff {
		t.Fatalf("critical path missing retry-backoff phase: %+v", cp.Phases)
	}
	// Three attempts record three propose spans under the one trace.
	var proposes int
	for _, sp := range tr.Spans(tid) {
		if sp.Name == trace.SpanGatewayPropose {
			proposes++
		}
	}
	if proposes != 3 {
		t.Fatalf("propose spans = %d, want 3", proposes)
	}
}
