// Package report renders benchmark results as aligned ASCII tables and CSV,
// the output layer of the SimdHT-Bench harnesses.
package report

import (
	"fmt"
	"io"
	"strings"
)

// Table is a titled grid of rows.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; values are formatted with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

func formatFloat(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 1000:
		return fmt.Sprintf("%.0f", v)
	case v >= 10:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// Fprint writes the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "%s\n", t.Title)
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintf(w, "| %s |\n", strings.Join(parts, " | "))
	}
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(t.Headers)
	line(sep)
	for _, row := range t.rows {
		line(row)
	}
}

// CSV writes the table as comma-separated values (headers first). Cells
// containing commas or quotes are quoted.
func (t *Table) CSV(w io.Writer) {
	writeCSVRow(w, t.Headers)
	for _, row := range t.rows {
		writeCSVRow(w, row)
	}
}

func writeCSVRow(w io.Writer, cells []string) {
	parts := make([]string, len(cells))
	for i, c := range cells {
		if strings.ContainsAny(c, ",\"\n") {
			c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
		}
		parts[i] = c
	}
	fmt.Fprintln(w, strings.Join(parts, ","))
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Bar renders a proportional ASCII bar of the given value against max,
// `width` characters wide — used for the Fig. 2 / Fig. 11b bar renderings.
func Bar(value, max float64, width int) string {
	if max <= 0 || value <= 0 {
		return ""
	}
	n := int(value / max * float64(width))
	if n > width {
		n = width
	}
	return strings.Repeat("#", n)
}

// Grid renders the Fig. 5-style "bubble" layout: a matrix indexed by two
// dimensions (slots-per-bucket rows × N-way columns in the paper) with a
// free-form cell string. Missing cells render as "-".
type Grid struct {
	Title     string
	RowLabel  string
	ColLabels []string
	rowNames  []string
	cells     map[string]map[string]string
}

// NewGrid creates an empty grid with the given column labels.
func NewGrid(title, rowLabel string, colLabels ...string) *Grid {
	return &Grid{
		Title:     title,
		RowLabel:  rowLabel,
		ColLabels: colLabels,
		cells:     make(map[string]map[string]string),
	}
}

// Set places a cell; rows appear in first-Set order.
func (g *Grid) Set(row, col, value string) {
	if _, ok := g.cells[row]; !ok {
		g.cells[row] = make(map[string]string)
		g.rowNames = append(g.rowNames, row)
	}
	g.cells[row][col] = value
}

// Fprint renders the grid with aligned columns.
func (g *Grid) Fprint(w io.Writer) {
	t := NewTable(g.Title, append([]string{g.RowLabel}, g.ColLabels...)...)
	for _, row := range g.rowNames {
		cells := make([]interface{}, 0, len(g.ColLabels)+1)
		cells = append(cells, row)
		for _, col := range g.ColLabels {
			v := g.cells[row][col]
			if v == "" {
				v = "-"
			}
			cells = append(cells, v)
		}
		t.AddRow(cells...)
	}
	t.Fprint(w)
}
