package specdsm

import (
	"fmt"
	"strings"

	"specdsm/internal/analytic"
	"specdsm/internal/report"
)

// This file renders experiment results in the layout of the paper's
// tables and figures. Every renderer returns printable text; the
// Experiments table (paper.go) writes it out.

// renderTable1 prints the system configuration (Table 1).
func renderTable1() string {
	t := report.NewTable("Table 1: system configuration parameters",
		"Parameter", "Value")
	t.AddRow("Number of nodes", "16")
	t.AddRow("Coherence block", "32 bytes")
	t.AddRow("Local memory / remote cache access", "104 cycles")
	t.AddRow("Network latency", "80 cycles")
	t.AddRow("Round-trip (clean 2-hop) miss latency", "418 cycles")
	t.AddRow("Remote-to-local access ratio (rtl)", "~4")
	t.AddRow("Directory occupancy", "24 cycles")
	t.AddRow("NI send/receive occupancy", "20 cycles")
	return t.String()
}

// renderTable2 prints the application roster (Table 2).
func renderTable2() string {
	t := report.NewTable("Table 2: applications and input data sets",
		"Application", "Paper input", "Paper iters", "Reproduction")
	for _, a := range AppInfos() {
		t.AddRow(a.Name, a.PaperInput, fmt.Sprint(a.PaperIterations),
			"synthetic sharing-pattern generator (see DESIGN.md)")
	}
	return t.String()
}

// renderFigure6 prints the four analytic-model panels as ASCII charts.
func renderFigure6() string {
	var b strings.Builder
	b.WriteString("Figure 6: potential speedup in a speculative coherent DSM (Equations 1-2)\n\n")
	for _, panel := range analytic.Panels() {
		c := report.NewLineChart(panel.String(), "communication ratio c", "speedup", 64, 16, 4)
		for _, s := range analytic.Figure6(panel) {
			c.AddSeries(s.Label, s.C, s.Y)
		}
		b.WriteString(c.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// RenderFigure7 prints base predictor accuracies (history depth 1).
func RenderFigure7(rows []Figure7Row) string {
	t := report.NewTable("Figure 7: base predictor accuracy (%), history depth 1",
		"Application", "Cosmos", "MSP", "VMSP")
	for _, r := range rows {
		if r.Failed != "" {
			t.AddFailed(r.App+" failed: "+r.Failed, r.App)
			continue
		}
		t.AddRow(r.App, report.Pct(r.Cosmos), report.Pct(r.MSP), report.Pct(r.VMSP))
	}
	c := report.NewBarChart("", 100, 40)
	for _, r := range rows {
		if r.Failed != "" {
			continue
		}
		c.AddGroup(r.App,
			"Cosmos", r.Cosmos*100,
			"MSP", r.MSP*100,
			"VMSP", r.VMSP*100)
	}
	return t.String() + "\n" + c.String()
}

// RenderFigure8 prints accuracy by history depth.
func RenderFigure8(rows []Figure8Row) string {
	if len(rows) == 0 {
		return ""
	}
	headers := []string{"Application", "Predictor"}
	for _, d := range rows[0].Depths {
		headers = append(headers, fmt.Sprintf("d=%d", d))
	}
	t := report.NewTable("Figure 8: predictor accuracy (%) with varying history depth", headers...)
	for _, r := range rows {
		if r.Failed != "" {
			t.AddFailed(r.App+" failed: "+r.Failed, r.App)
			continue
		}
		for _, kind := range Kinds() {
			cells := []string{r.App, string(kind)}
			for i := range r.Depths {
				cells = append(cells, report.Pct(r.Accuracy[kind][i]))
			}
			t.AddRow(cells...)
		}
	}
	return t.String()
}

// RenderTable3 prints coverage and correct fractions.
func RenderTable3(rows []Table3Row) string {
	t := report.NewTable("Table 3: messages predicted (and correctly predicted) %, history depth 1",
		"Application", "Cosmos", "MSP", "VMSP")
	for _, r := range rows {
		if r.Failed != "" {
			t.AddFailed(r.App+" failed: "+r.Failed, r.App)
			continue
		}
		cell := func(k PredictorKind) string {
			return fmt.Sprintf("%s (%s)", report.Pct(r.Coverage[k]), report.Pct(r.Correct[k]))
		}
		t.AddRow(r.App, cell(Cosmos), cell(MSP), cell(VMSP))
	}
	return t.String()
}

// RenderTable4 prints pattern-table occupancy and byte overhead.
func RenderTable4(rows []Table4Row) string {
	t := report.NewTable("Table 4: predictor storage overhead",
		"Application",
		"Cosmos pte d=1", "d=4", "ovh(B)",
		"MSP pte d=1", "d=4", "ovh(B)",
		"VMSP pte d=1", "d=4", "ovh(B)")
	for _, r := range rows {
		if r.Failed != "" {
			t.AddFailed(r.App+" failed: "+r.Failed, r.App)
			continue
		}
		t.AddRow(r.App,
			report.F1(r.PTE1[Cosmos]), report.F1(r.PTE4[Cosmos]), report.F1(r.Bytes[Cosmos]),
			report.F1(r.PTE1[MSP]), report.F1(r.PTE4[MSP]), report.F1(r.Bytes[MSP]),
			report.F1(r.PTE1[VMSP]), report.F1(r.PTE4[VMSP]), report.F1(r.Bytes[VMSP]))
	}
	t.AddNote("pte: average pattern-table entries per allocated block")
	t.AddNote("ovh: bytes per block at d=1 — Cosmos (7+14*pte)/8, MSP (6+12*pte)/8, VMSP (18+24*pte)/8")
	return t.String()
}

// renderFigure9 prints normalized execution-time breakdowns.
func renderFigure9(rows []figure9Row) string {
	t := report.NewTable("Figure 9: execution time normalized to Base-DSM (computation + request wait)",
		"Application", "Base", "FR-DSM", "SWI-DSM")
	cell := func(p [2]float64) string {
		return fmt.Sprintf("%5.1f (%4.1f+%4.1f)", p[0]+p[1], p[0], p[1])
	}
	for _, r := range rows {
		if r.Failed != "" {
			t.AddFailed(r.App+" failed: "+r.Failed, r.App)
			continue
		}
		t.AddRow(r.App, cell(r.Base), cell(r.FR), cell(r.SWI))
	}
	c := report.NewBarChart("", 110, 44)
	for _, r := range rows {
		if r.Failed != "" {
			continue
		}
		c.AddGroup(r.App,
			"Base", r.Base[0]+r.Base[1],
			"FR  ", r.FR[0]+r.FR[1],
			"SWI ", r.SWI[0]+r.SWI[1])
	}
	// The mean covers completed applications only; FAILED rows would
	// otherwise drag it toward zero.
	var frSum, swiSum, n float64
	for _, r := range rows {
		if r.Failed != "" {
			continue
		}
		frSum += r.Total(ModeFR)
		swiSum += r.Total(ModeSWI)
		n++
	}
	summary := fmt.Sprintf("mean execution time: FR-DSM %.1f%%, SWI-DSM %.1f%% of Base-DSM (paper: 92%%, 88%%)\n",
		frSum/n, swiSum/n)
	if n == 0 {
		summary = "mean execution time: unavailable (all applications failed)\n"
	}
	return t.String() + "\n" + c.String() + "\n" + summary
}

// renderTable5 prints speculation frequencies.
func renderTable5(rows []table5Row) string {
	t := report.NewTable("Table 5: frequency of requests, speculations, and misspeculations",
		"Application", "reads", "writes",
		"FR-DSM read sent/miss %",
		"SWI-DSM FR read %", "SWI read %", "write inval %")
	for _, r := range rows {
		if r.Failed != "" {
			t.AddFailed(r.App+" failed: "+r.Failed, r.App)
			continue
		}
		t.AddRow(r.App,
			fmt.Sprint(r.BaseReads), fmt.Sprint(r.BaseWrites),
			fmt.Sprintf("%.0f / %.0f", r.FRSent, r.FRMiss),
			fmt.Sprintf("%.0f / %.0f", r.SWIFRSent, r.SWIFRMiss),
			fmt.Sprintf("%.0f / %.0f", r.SWIReadSent, r.SWIReadMiss),
			fmt.Sprintf("%.0f / %.0f", r.SWIInvalSent, r.SWIInvalMiss))
	}
	t.AddNote("percentages relative to Base-DSM request counts; sent/miss per trigger")
	return t.String()
}
