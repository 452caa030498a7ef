package bench

import (
	"context"
	"io"
	"strings"
	"testing"
	"time"

	"fabricsim/internal/fabnet"
	"fabricsim/internal/policy"
)

func TestGetAndAll(t *testing.T) {
	want := []string{"fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "table2", "table3", "fig8", "channels", "pipeline", "commit", "endorse", "dissemination", "recovery", "chaos", "contention"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("All() = %d experiments", len(all))
	}
	for i, id := range want {
		if all[i].ID != id {
			t.Errorf("All()[%d] = %s, want %s", i, all[i].ID, id)
		}
		if _, ok := Get(id); !ok {
			t.Errorf("Get(%s) missing", id)
		}
	}
	for _, id := range []string{"batchsize", "batchtimeout", "txsize"} {
		if _, ok := Get(id); !ok {
			t.Errorf("ablation %s missing", id)
		}
	}
	if _, ok := Get("fig99"); ok {
		t.Error("unknown id found")
	}
	if !strings.Contains(Describe(), "fig2") {
		t.Error("Describe missing fig2")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Scale <= 0 || o.Duration <= 0 || o.TxSize < 1 {
		t.Errorf("defaults not applied: %+v", o)
	}
	q := Options{Quick: true}.withDefaults()
	if q.Duration >= o.Duration {
		t.Error("quick mode not shorter")
	}
}

// TestRunPointShapes is the harness self-test:
// a short overdriven run must exhibit the paper's bottleneck ordering
// (execute keeps up with the offered rate, validate saturates below it).
func TestRunPointShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a load point")
	}
	p, err := RunPoint(context.Background(), PointConfig{
		Orderer:     fabnet.Solo,
		OSNs:        1,
		Peers:       10,
		Policy:      policy.OrOverPeers(10),
		PolicyLabel: "OR",
		Rate:        420,
	}, Options{Scale: 0.25, Duration: 8 * time.Second, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := p.Summary
	if s.ExecuteTPS < 370 {
		t.Errorf("execute tps = %.0f, want near offered 420", s.ExecuteTPS)
	}
	if s.ValidateTPS < 260 || s.ValidateTPS > 360 {
		t.Errorf("validate tps = %.0f, want the ~310 cap", s.ValidateTPS)
	}
	if s.ValidateTPS >= s.ExecuteTPS {
		t.Error("validate not the bottleneck at overload")
	}
	if s.BlockTime <= 0 || s.AvgBlockSize < 50 {
		t.Errorf("block metrics: time=%s size=%.0f", s.BlockTime, s.AvgBlockSize)
	}
}

// TestQuickExperimentRuns smoke-runs one cheap ablation end to end.
func TestQuickExperimentRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs load points")
	}
	exp, _ := Get("batchtimeout")
	if err := exp.Run(context.Background(), Options{Scale: 0.25, Duration: 3 * time.Second, Quick: true}, io.Discard); err != nil {
		t.Fatal(err)
	}
}
