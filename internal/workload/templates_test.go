package workload

import (
	"math"
	"strings"
	"testing"

	"repro/internal/platform"
)

func TestTemplatesWellFormed(t *testing.T) {
	tpls := Templates()
	if len(tpls) != 6 {
		t.Fatalf("got %d templates, want the paper's 6", len(tpls))
	}
	seen := map[string]bool{}
	for _, tpl := range tpls {
		if seen[tpl.Name] {
			t.Errorf("duplicate template %s", tpl.Name)
		}
		seen[tpl.Name] = true
		if tpl.MinNodes <= 0 || tpl.MaxNodes < tpl.MinNodes {
			t.Errorf("%s: bad node range [%d, %d]", tpl.Name, tpl.MinNodes, tpl.MaxNodes)
		}
		if tpl.Period <= 0 || tpl.VolumePerNode <= 0 || tpl.Outputs <= 0 {
			t.Errorf("%s: bad parameters %+v", tpl.Name, tpl)
		}
	}
	for _, want := range []string{"S3D", "HOMME", "GTC", "Enzo", "HACC", "CM1"} {
		if !seen[want] {
			t.Errorf("missing paper application %s", want)
		}
	}
}

func TestInstantiate(t *testing.T) {
	tpl := Templates()[2]
	if tpl.Name != "GTC" {
		t.Fatalf("template 2 is %s, want GTC", tpl.Name)
	}
	app := tpl.Instantiate(3, 0, 7)
	if err := app.Validate(); err != nil {
		t.Fatal(err)
	}
	if app.Nodes < tpl.MinNodes || app.Nodes > tpl.MaxNodes {
		t.Errorf("nodes %d outside [%d, %d]", app.Nodes, tpl.MinNodes, tpl.MaxNodes)
	}
	if !app.IsPeriodic() {
		t.Error("template app not periodic")
	}
	if !strings.HasPrefix(app.Name, "GTC-") {
		t.Errorf("name %q", app.Name)
	}
	w := app.Instances[0].Work
	if w < tpl.Period*(1-tpl.PeriodSpread) || w > tpl.Period*(1+tpl.PeriodSpread) {
		t.Errorf("period %g outside spread of %g", w, tpl.Period)
	}
	fixed := tpl.Instantiate(4, 999, 7)
	if fixed.Nodes != 999 {
		t.Errorf("explicit node count ignored: %d", fixed.Nodes)
	}
	// Same seed, same draw.
	again := tpl.Instantiate(3, 0, 7)
	if again.Nodes != app.Nodes || again.Instances[0] != app.Instances[0] {
		t.Error("instantiate not deterministic")
	}
}

func TestDalyPeriod(t *testing.T) {
	// Known shape: for δ ≪ M, T ≈ sqrt(2δM).
	const delta, mtbf = 60.0, 86400.0
	got, err := DalyPeriod(delta, mtbf)
	if err != nil {
		t.Fatal(err)
	}
	approx := math.Sqrt(2 * delta * mtbf)
	if got < 0.9*approx-delta || got > 1.1*approx {
		t.Errorf("Daly period %g far from first-order %g", got, approx)
	}
	// Degenerate regime: δ >= 2M clamps to M.
	if got, err := DalyPeriod(100, 40); err != nil || got != 40 {
		t.Errorf("DalyPeriod(100, 40) = %g, %v; want 40", got, err)
	}
	for _, bad := range [][2]float64{{0, 100}, {-1, 100}, {100, 0}} {
		if _, err := DalyPeriod(bad[0], bad[1]); err == nil {
			t.Errorf("DalyPeriod(%g, %g) accepted", bad[0], bad[1])
		}
	}
}

func TestDalyPeriodMonotoneInMTBF(t *testing.T) {
	prev := 0.0
	for _, m := range []float64{3600, 7200, 86400, 7 * 86400} {
		got, err := DalyPeriod(120, m)
		if err != nil {
			t.Fatal(err)
		}
		if got <= prev {
			t.Errorf("Daly period not increasing with MTBF: %g after %g", got, prev)
		}
		prev = got
	}
}

func TestCheckpointApp(t *testing.T) {
	p := platform.Intrepid()
	app, err := CheckpointApp(p, 0, 4096, 0.5, 86400, 40000)
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Validate(); err != nil {
		t.Fatal(err)
	}
	if !app.IsPeriodic() {
		t.Error("checkpoint app not periodic")
	}
	if vol := app.Instances[0].Volume; vol != 0.5*4096 {
		t.Errorf("checkpoint volume %g, want full footprint 2048", vol)
	}
	if len(app.Instances) < 2 {
		t.Errorf("only %d checkpoints in a 40000 s run", len(app.Instances))
	}
	if _, err := CheckpointApp(p, 0, 0, 0.5, 86400, 1000); err == nil {
		t.Error("zero nodes accepted")
	}
}
