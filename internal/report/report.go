package report

import (
	"fmt"
	"math"
	"strings"
)

// Table is a simple fixed-width text table builder.
type Table struct {
	title   string
	headers []string
	rows    [][]string
	notes   []string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{title: title, headers: headers}
}

// AddRow appends one row; cells beyond the header count are dropped.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.headers))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// AddFailed appends the row of a failed measurement: the lead cells,
// then FAILED in every remaining column. A non-empty note becomes a
// footnote line.
func (t *Table) AddFailed(note string, lead ...string) {
	cells := lead
	for len(cells) < len(t.headers) {
		cells = append(cells, "FAILED")
	}
	t.AddRow(cells...)
	if note != "" {
		t.notes = append(t.notes, note)
	}
}

// AddNote appends a footnote line.
func (t *Table) AddNote(format string, args ...any) {
	t.notes = append(t.notes, fmt.Sprintf(format, args...))
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.title != "" {
		b.WriteString(t.title)
		b.WriteByte('\n')
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.headers)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total-2))
	b.WriteByte('\n')
	for _, row := range t.rows {
		line(row)
	}
	for _, n := range t.notes {
		fmt.Fprintf(&b, "  %s\n", n)
	}
	return b.String()
}

// Pct formats a ratio as a percentage with one decimal.
func Pct(v float64) string { return fmt.Sprintf("%.1f", v*100) }

// F1 formats with one decimal.
func F1(v float64) string { return fmt.Sprintf("%.1f", v) }

// F2 formats with two decimals.
func F2(v float64) string { return fmt.Sprintf("%.2f", v) }

// BarChart renders grouped horizontal bars (one group per row label),
// scaled to maxWidth characters at 100 units.
type BarChart struct {
	title    string
	maxValue float64
	width    int
	groups   []barGroup
}

type barGroup struct {
	label string
	bars  []bar
}

type bar struct {
	name  string
	value float64
}

// NewBarChart creates a chart; maxValue maps to full width.
func NewBarChart(title string, maxValue float64, width int) *BarChart {
	if width <= 0 {
		width = 50
	}
	if maxValue <= 0 {
		maxValue = 100
	}
	return &BarChart{title: title, maxValue: maxValue, width: width}
}

// AddGroup appends a labeled group of (name, value) bars.
func (c *BarChart) AddGroup(label string, namesAndValues ...any) {
	g := barGroup{label: label}
	for i := 0; i+1 < len(namesAndValues); i += 2 {
		g.bars = append(g.bars, bar{
			name:  fmt.Sprint(namesAndValues[i]),
			value: toFloat(namesAndValues[i+1]),
		})
	}
	c.groups = append(c.groups, g)
}

func toFloat(v any) float64 {
	switch x := v.(type) {
	case float64:
		return x
	case float32:
		return float64(x)
	case int:
		return float64(x)
	case int64:
		return float64(x)
	case uint64:
		return float64(x)
	default:
		return math.NaN()
	}
}

// String renders the chart.
func (c *BarChart) String() string {
	var b strings.Builder
	if c.title != "" {
		fmt.Fprintf(&b, "%s\n", c.title)
	}
	nameW, labelW := 0, 0
	for _, g := range c.groups {
		if len(g.label) > labelW {
			labelW = len(g.label)
		}
		for _, bb := range g.bars {
			if len(bb.name) > nameW {
				nameW = len(bb.name)
			}
		}
	}
	for _, g := range c.groups {
		fmt.Fprintf(&b, "%-*s\n", labelW, g.label)
		for _, bb := range g.bars {
			n := int(bb.value / c.maxValue * float64(c.width))
			if n < 0 {
				n = 0
			}
			if n > c.width {
				n = c.width
			}
			fmt.Fprintf(&b, "  %-*s |%s %.1f\n", nameW, bb.name, strings.Repeat("#", n), bb.value)
		}
	}
	return b.String()
}

// LineChart renders multiple series as a character grid (used for the
// Figure 6 analytic curves).
type LineChart struct {
	title  string
	xLabel string
	yLabel string
	series []lineSeries
	width  int
	height int
	yMax   float64
}

type lineSeries struct {
	label  string
	marker byte
	xs, ys []float64
}

// NewLineChart creates a chart of the given character dimensions; yMax of
// zero auto-scales.
func NewLineChart(title, xLabel, yLabel string, width, height int, yMax float64) *LineChart {
	if width <= 0 {
		width = 60
	}
	if height <= 0 {
		height = 16
	}
	return &LineChart{title: title, xLabel: xLabel, yLabel: yLabel, width: width, height: height, yMax: yMax}
}

var markers = []byte{'*', 'o', '+', 'x', '#', '@', '%', '&'}

// AddSeries appends one curve. xs must be ascending in [0,1].
func (c *LineChart) AddSeries(label string, xs, ys []float64) {
	m := markers[len(c.series)%len(markers)]
	c.series = append(c.series, lineSeries{label: label, marker: m, xs: xs, ys: ys})
}

// String renders the chart.
func (c *LineChart) String() string {
	yMax := c.yMax
	if yMax <= 0 {
		for _, s := range c.series {
			for _, y := range s.ys {
				if y > yMax {
					yMax = y
				}
			}
		}
		if yMax == 0 {
			yMax = 1
		}
	}
	grid := make([][]byte, c.height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", c.width))
	}
	for _, s := range c.series {
		for i := range s.xs {
			col := int(s.xs[i] * float64(c.width-1))
			rowF := s.ys[i] / yMax * float64(c.height-1)
			row := c.height - 1 - int(rowF)
			if row < 0 {
				row = 0
			}
			if row >= c.height {
				row = c.height - 1
			}
			if col >= 0 && col < c.width {
				grid[row][col] = s.marker
			}
		}
	}
	var b strings.Builder
	if c.title != "" {
		fmt.Fprintf(&b, "%s\n", c.title)
	}
	fmt.Fprintf(&b, "%s (max %.1f)\n", c.yLabel, yMax)
	for _, row := range grid {
		fmt.Fprintf(&b, "|%s\n", string(row))
	}
	fmt.Fprintf(&b, "+%s> %s\n", strings.Repeat("-", c.width), c.xLabel)
	for _, s := range c.series {
		fmt.Fprintf(&b, "  %c %s\n", s.marker, s.label)
	}
	return b.String()
}
