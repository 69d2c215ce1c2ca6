// Package trace provides the small reporting utility the experiment
// harness uses: aligned text tables for the figure reproductions.
package trace

import (
	"fmt"
	"io"
	"strings"
)

// Table accumulates rows and renders them with aligned columns.
type Table struct {
	Title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, headers: headers}
}

// AddRow appends a row; values are formatted with %v, floats with %.3g.
func (t *Table) AddRow(vals ...any) {
	row := make([]string, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", x)
		case float32:
			row[i] = fmt.Sprintf("%.3f", x)
		default:
			row[i] = fmt.Sprintf("%v", x)
		}
	}
	t.rows = append(t.rows, row)
}

// Render writes the table.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "## %s\n", t.Title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			for p := len(c); p < widths[i]; p++ {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	line(t.headers)
	sep := make([]string, len(t.headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// String renders to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.Render(&b)
	return b.String()
}
