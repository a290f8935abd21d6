package report

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tbl := NewTable("Title", "App", "Value")
	tbl.AddRow("em3d", "12.5")
	tbl.AddRow("averylongappname", "3")
	tbl.AddNote("note %d", 1)
	out := tbl.String()
	if !strings.Contains(out, "Title") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "App") || !strings.Contains(out, "Value") {
		t.Error("missing headers")
	}
	if !strings.Contains(out, "em3d") || !strings.Contains(out, "averylongappname") {
		t.Error("missing rows")
	}
	if !strings.Contains(out, "note 1") {
		t.Error("missing note")
	}
	// Columns aligned: every line at least as wide as the longest label.
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) < 5 {
		t.Fatalf("unexpected line count %d", len(lines))
	}
}

func TestTableAddFailed(t *testing.T) {
	tbl := NewTable("", "App", "A", "B")
	tbl.AddFailed("em3d failed: boom", "em3d")
	tbl.AddFailed("", "moldyn", "7")
	want := NewTable("", "App", "A", "B")
	want.AddRow("em3d", "FAILED", "FAILED")
	want.AddRow("moldyn", "7", "FAILED")
	want.AddNote("%s failed: %s", "em3d", "boom")
	if got := tbl.String(); got != want.String() {
		t.Fatalf("AddFailed rendered\n%s\nwant\n%s", got, want.String())
	}
}

func TestTableDropsExtraCells(t *testing.T) {
	tbl := NewTable("", "A")
	tbl.AddRow("x", "dropped")
	out := tbl.String()
	if strings.Contains(out, "dropped") {
		t.Error("extra cell should be dropped")
	}
}

func TestFormatters(t *testing.T) {
	if Pct(0.125) != "12.5" {
		t.Errorf("Pct = %q", Pct(0.125))
	}
	if F1(3.14159) != "3.1" || F2(3.14159) != "3.14" {
		t.Errorf("F1/F2 wrong: %q %q", F1(3.14159), F2(3.14159))
	}
}

func TestBarChart(t *testing.T) {
	c := NewBarChart("chart", 100, 20)
	c.AddGroup("em3d", "base", 100.0, "swi", 70.5)
	out := c.String()
	if !strings.Contains(out, "em3d") || !strings.Contains(out, "base") {
		t.Fatalf("missing labels: %s", out)
	}
	if !strings.Contains(out, "####") {
		t.Fatalf("missing bars: %s", out)
	}
	if !strings.Contains(out, "70.5") {
		t.Fatalf("missing values: %s", out)
	}
}

func TestBarChartClamps(t *testing.T) {
	c := NewBarChart("", 100, 10)
	c.AddGroup("g", "over", 250.0, "neg", -5.0)
	out := c.String()
	if strings.Contains(out, strings.Repeat("#", 11)) {
		t.Error("bar exceeded width")
	}
}

func TestLineChart(t *testing.T) {
	c := NewLineChart("fig", "c", "speedup", 40, 10, 4)
	xs := []float64{0, 0.5, 1}
	c.AddSeries("p=1.0", xs, []float64{1, 2, 4})
	c.AddSeries("p=0.5", xs, []float64{1, 0.8, 0.6})
	out := c.String()
	if !strings.Contains(out, "fig") || !strings.Contains(out, "p=1.0") {
		t.Fatalf("missing labels: %s", out)
	}
	if !strings.Contains(out, "*") || !strings.Contains(out, "o") {
		t.Fatalf("missing markers: %s", out)
	}
	if !strings.Contains(out, "speedup") {
		t.Fatal("missing y label")
	}
}

func TestLineChartAutoScale(t *testing.T) {
	c := NewLineChart("", "x", "y", 20, 8, 0)
	c.AddSeries("s", []float64{0, 1}, []float64{0, 7.5})
	out := c.String()
	if !strings.Contains(out, "max 7.5") {
		t.Fatalf("auto-scale failed: %s", out)
	}
}
