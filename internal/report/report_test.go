package report

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tbl := &Table{
		Title:   "demo",
		Columns: []string{"a", "b"},
		Notes:   []string{"a note"},
	}
	tbl.AddRow("row-one", 1.5, 2.25)
	tbl.AddRow("r2", math.NaN(), math.Inf(1))
	var sb strings.Builder
	if err := tbl.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"demo", "row-one", "1.50", "2.25", "-", "inf", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestTableCSV(t *testing.T) {
	tbl := &Table{Columns: []string{"x,y", `q"z`}}
	tbl.AddRow("hello, world", 1, 2)
	var sb strings.Builder
	if err := tbl.RenderCSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `"x,y"`) || !strings.Contains(out, `"q""z"`) {
		t.Errorf("CSV escaping wrong:\n%s", out)
	}
	if !strings.Contains(out, `"hello, world",1,2`) {
		t.Errorf("CSV row wrong:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Errorf("CSV has %d lines, want 2", len(lines))
	}
}

func TestFigureRender(t *testing.T) {
	f := &Figure{
		Title:  "fig",
		XLabel: "x",
		YLabel: "y",
		Series: []Series{
			{Name: "s1", X: []float64{1, 2}, Y: []float64{10, 20}},
			{Name: "a-very-long-series-name", X: []float64{1, 2}, Y: []float64{30, 40}},
		},
		Notes: []string{"hello"},
	}
	var sb strings.Builder
	if err := f.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"fig", "s1", "10.00", "40.00", "note: hello"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered figure missing %q:\n%s", want, out)
		}
	}
}

func TestFigureCSVHandlesRaggedSeries(t *testing.T) {
	f := &Figure{
		Series: []Series{
			{Name: "long", X: []float64{1, 2, 3}, Y: []float64{1, 2, 3}},
			{Name: "short", X: []float64{1}, Y: []float64{9}},
		},
	}
	var sb strings.Builder
	if err := f.RenderCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("CSV has %d lines, want 4:\n%s", len(lines), sb.String())
	}
	if !strings.HasSuffix(lines[3], ",") {
		t.Errorf("ragged row should end with empty cell: %q", lines[3])
	}
}

func TestDocumentRender(t *testing.T) {
	d := &Document{ID: "x", Title: "t"}
	tbl := &Table{Columns: []string{"c"}}
	tbl.AddRow("r", 1)
	d.Tables = append(d.Tables, tbl)
	d.Figures = append(d.Figures, &Figure{Series: []Series{{Name: "s", X: []float64{1}, Y: []float64{2}}}})
	var sb strings.Builder
	if err := d.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "== x: t ==") {
		t.Errorf("document header missing:\n%s", sb.String())
	}
}

func TestExportCSV(t *testing.T) {
	d := &Document{ID: "exp", Title: "t"}
	tbl := &Table{Columns: []string{"c"}}
	tbl.AddRow("r", 1)
	d.Tables = append(d.Tables, tbl)
	d.Figures = append(d.Figures, &Figure{
		Series: []Series{{Name: "s", X: []float64{1}, Y: []float64{2}}},
	})
	dir := t.TempDir()
	if err := d.ExportCSV(dir); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"exp-table1.csv", "exp-series1.csv"} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(b) == 0 {
			t.Errorf("%s empty", name)
		}
	}
}
