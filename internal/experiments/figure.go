package experiments

import (
	"fmt"
	"io"
	"strings"
)

// Series is one labelled curve of a figure.
type Series struct {
	Name string
	Y    []float64
}

// FigureResult is a reproduced figure: named series sharing an x-axis.
type FigureResult struct {
	ID     string // e.g. "1a"
	Title  string
	XLabel string
	YLabel string
	X      []float64
	Series []Series
}

// Render writes the figure as an aligned ASCII table.
func (f *FigureResult) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "Figure %s: %s\n", f.ID, f.Title); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "  x-axis: %s   y-axis: %s\n", f.XLabel, f.YLabel); err != nil {
		return err
	}
	cols := make([]string, 0, len(f.Series)+1)
	cols = append(cols, f.XLabel)
	for _, s := range f.Series {
		cols = append(cols, s.Name)
	}
	widths := make([]int, len(cols))
	rows := make([][]string, len(f.X))
	for r := range f.X {
		row := make([]string, 0, len(cols))
		row = append(row, trimFloat(f.X[r]))
		for _, s := range f.Series {
			if r < len(s.Y) {
				row = append(row, trimFloat(s.Y[r]))
			} else {
				row = append(row, "-")
			}
		}
		rows[r] = row
	}
	for c, name := range cols {
		widths[c] = len(name)
		for _, row := range rows {
			if len(row[c]) > widths[c] {
				widths[c] = len(row[c])
			}
		}
	}
	writeRow := func(cells []string) error {
		parts := make([]string, len(cells))
		for c, cell := range cells {
			parts[c] = fmt.Sprintf("%*s", widths[c], cell)
		}
		_, err := fmt.Fprintf(w, "  %s\n", strings.Join(parts, "  "))
		return err
	}
	if err := writeRow(cols); err != nil {
		return err
	}
	for _, row := range rows {
		if err := writeRow(row); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// RenderCSV writes the figure as CSV (x column, then one column per series).
func (f *FigureResult) RenderCSV(w io.Writer) error {
	header := make([]string, 0, len(f.Series)+1)
	header = append(header, csvEscape(f.XLabel))
	for _, s := range f.Series {
		header = append(header, csvEscape(s.Name))
	}
	if _, err := fmt.Fprintln(w, strings.Join(header, ",")); err != nil {
		return err
	}
	for r := range f.X {
		row := make([]string, 0, len(f.Series)+1)
		row = append(row, trimFloat(f.X[r]))
		for _, s := range f.Series {
			if r < len(s.Y) {
				row = append(row, trimFloat(s.Y[r]))
			} else {
				row = append(row, "")
			}
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

// trimFloat prints a float compactly: integers lose the decimal point,
// everything else keeps three significant decimals.
func trimFloat(v float64) string {
	if v == float64(int64(v)) && v < 1e15 && v > -1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.3f", v), "0"), ".")
}

// mean returns the arithmetic mean of xs (0 for an empty slice).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total / float64(len(xs))
}
