// Package report renders experiment outputs: ASCII tables with the same
// rows the paper reports, simple series (the data behind each figure), and
// CSV export for external plotting.
package report

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
)

// Table is a labeled grid of values.
type Table struct {
	Title   string
	Columns []string
	Rows    []Row
	// Notes are printed under the table.
	Notes []string
}

// Row is one labeled table row.
type Row struct {
	Label string
	Cells []float64
}

// AddRow appends a row.
func (t *Table) AddRow(label string, cells ...float64) {
	t.Rows = append(t.Rows, Row{Label: label, Cells: cells})
}

// Render writes the table as aligned ASCII.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Columns)+1)
	widths[0] = len("scheduler")
	for _, r := range t.Rows {
		if len(r.Label) > widths[0] {
			widths[0] = len(r.Label)
		}
	}
	cells := make([][]string, len(t.Rows))
	for i, r := range t.Rows {
		cells[i] = make([]string, len(r.Cells))
		for j, v := range r.Cells {
			cells[i][j] = formatValue(v)
		}
	}
	for j, c := range t.Columns {
		widths[j+1] = len(c)
		for i := range t.Rows {
			if j < len(cells[i]) && len(cells[i][j]) > widths[j+1] {
				widths[j+1] = len(cells[i][j])
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	sep := make([]string, len(widths))
	fmt.Fprintf(&b, "%-*s", widths[0], "")
	sep[0] = strings.Repeat("-", widths[0])
	for j, c := range t.Columns {
		fmt.Fprintf(&b, "  %*s", widths[j+1], c)
		sep[j+1] = strings.Repeat("-", widths[j+1])
	}
	b.WriteString("\n")
	b.WriteString(strings.Join(sep, "--"))
	b.WriteString("\n")
	for i, r := range t.Rows {
		fmt.Fprintf(&b, "%-*s", widths[0], r.Label)
		for j := range t.Columns {
			s := ""
			if j < len(cells[i]) {
				s = cells[i][j]
			}
			fmt.Fprintf(&b, "  %*s", widths[j+1], s)
		}
		b.WriteString("\n")
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// RenderCSV writes the table as CSV (label + columns).
func (t *Table) RenderCSV(w io.Writer) error {
	var b strings.Builder
	b.WriteString("label")
	for _, c := range t.Columns {
		b.WriteString(",")
		b.WriteString(csvEscape(c))
	}
	b.WriteString("\n")
	for _, r := range t.Rows {
		b.WriteString(csvEscape(r.Label))
		for _, v := range r.Cells {
			fmt.Fprintf(&b, ",%g", v)
		}
		b.WriteString("\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

func formatValue(v float64) string {
	switch {
	case math.IsNaN(v):
		return "-"
	case math.IsInf(v, 0):
		return "inf"
	case v != 0 && math.Abs(v) < 0.01:
		return fmt.Sprintf("%.2e", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

// Series is one line of a figure: y values over labeled x positions.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Figure is a set of series sharing an x axis, the data behind one paper
// figure.
type Figure struct {
	Title  string
	XLabel string
	YLabel string
	Series []Series
	Notes  []string
}

// Render writes the figure as a column-per-series value listing plus a
// coarse ASCII chart of each series.
func (f *Figure) Render(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "%s  (%s vs %s)\n", f.Title, f.YLabel, f.XLabel)
	// Tabular listing.
	fmt.Fprintf(&b, "%12s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&b, "  %14s", truncate(s.Name, 14))
	}
	b.WriteString("\n")
	n := 0
	for _, s := range f.Series {
		if len(s.X) > n {
			n = len(s.X)
		}
	}
	for i := 0; i < n; i++ {
		x := math.NaN()
		for _, s := range f.Series {
			if i < len(s.X) {
				x = s.X[i]
				break
			}
		}
		fmt.Fprintf(&b, "%12s", formatValue(x))
		for _, s := range f.Series {
			v := math.NaN()
			if i < len(s.Y) {
				v = s.Y[i]
			}
			fmt.Fprintf(&b, "  %14s", formatValue(v))
		}
		b.WriteString("\n")
	}
	for _, note := range f.Notes {
		fmt.Fprintf(&b, "note: %s\n", note)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// RenderCSV writes the figure as CSV with one column per series.
func (f *Figure) RenderCSV(w io.Writer) error {
	var b strings.Builder
	b.WriteString("x")
	for _, s := range f.Series {
		b.WriteString(",")
		b.WriteString(csvEscape(s.Name))
	}
	b.WriteString("\n")
	n := 0
	for _, s := range f.Series {
		if len(s.X) > n {
			n = len(s.X)
		}
	}
	for i := 0; i < n; i++ {
		x := math.NaN()
		for _, s := range f.Series {
			if i < len(s.X) {
				x = s.X[i]
				break
			}
		}
		fmt.Fprintf(&b, "%g", x)
		for _, s := range f.Series {
			if i < len(s.Y) {
				fmt.Fprintf(&b, ",%g", s.Y[i])
			} else {
				b.WriteString(",")
			}
		}
		b.WriteString("\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}

// Document is the rendered output of one experiment: any mix of tables and
// figures, in order.
type Document struct {
	ID    string
	Title string

	Tables  []*Table
	Figures []*Figure
}

// Render writes all parts.
func (d *Document) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n\n", d.ID, d.Title); err != nil {
		return err
	}
	for _, t := range d.Tables {
		if err := t.Render(w); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	for _, f := range d.Figures {
		if err := f.Render(w); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// ExportCSV writes every table and figure of the document into dir as
// CSV files named <id>-table<n>.csv / <id>-series<n>.csv, creating dir if
// needed.
func (d *Document) ExportCSV(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name string, render func(io.Writer) error) error {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		if err := render(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	for i, t := range d.Tables {
		t := t
		name := fmt.Sprintf("%s-table%d.csv", d.ID, i+1)
		if err := write(name, t.RenderCSV); err != nil {
			return err
		}
	}
	for i, f := range d.Figures {
		f := f
		name := fmt.Sprintf("%s-series%d.csv", d.ID, i+1)
		if err := write(name, f.RenderCSV); err != nil {
			return err
		}
	}
	return nil
}
