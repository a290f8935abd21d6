package specdsm

import (
	"fmt"
	"io"
)

// The simulation studies' names. Each is also the study's checkpoint
// file suffix: StudyConfig.CheckpointPath + "." + name.
const (
	speculationStudy = "speculation"
	seedsStudy       = "seeds"
	scalingStudy     = "scaling"
	rtlStudy         = "rtl"
)

// An Experiment is one artifact of the evaluation: a table or figure of
// the paper, or of a beyond-paper study. Experiments lists them all.
type Experiment struct {
	// Name is the artifact's name, paperrepro's -only value. Figure 9 has
	// two rows: the single-seed one, and the aggregate across seeds.
	Name string
	// Study names the simulation study the artifact renders, "" for one
	// that simulates nothing. It is also the study's checkpoint file
	// suffix: StudyConfig.CheckpointPath + "." + Study. Experiments on
	// one study sit next to each other and share one Run of it.
	Study string
	// OptIn marks a beyond-paper study: it prints only when asked for
	// by name.
	OptIn bool
	// Timing formats the wall-clock line a command prints after the
	// study's last experiment, with one verb for the duration ("" for
	// none).
	Timing string

	study  *study
	render func(w io.Writer, rows Rows) error
}

// Rows is one Run of an experiment's study: what every experiment on
// the study renders.
type Rows struct {
	// Failed has one line for each row that failed under
	// StudyConfig.KeepGoing, naming the row and its error.
	Failed []string
	rows   any
}

// A study is what experiments render: a simulation study, or for the
// experiments with no Study, the static characterization or nothing.
// seeds says which runs print its experiments: every run (0), only
// single-seed runs (-1), or only multi-seed runs (+1), which aggregate
// Figure 9 across their seeds.
type study struct {
	name, timing string
	optIn        bool
	seeds        int8
	run          func(cfg StudyConfig, seeds []int64) (Rows, error)
}

// Experiments returns the evaluation's artifacts in print order.
func Experiments() []Experiment {
	static := &study{}
	chars := &study{run: func(cfg StudyConfig, _ []int64) (Rows, error) {
		rows, err := characterizeApps(cfg)
		return rowsOf(rows, err, func(r appCharacterization) string { return failedAs(r.Failed, "characterize %s", r.App) })
	}}
	rtl := &study{name: rtlStudy, timing: "[rtl sweep: %v]\n", optIn: true, run: func(cfg StudyConfig, _ []int64) (Rows, error) {
		var rows []rtlPoint
		err := rtlSweepStream(cfg, "em3d", cfg.workloadParams(), nil, collect(&rows))
		return rowsOf(rows, err, func(p rtlPoint) string { return failedAs(p.Failed, "rtl flight %d", p.Flight) })
	}}
	scaling := &study{name: scalingStudy, timing: "[scaling study: %v]\n", optIn: true, run: func(cfg StudyConfig, _ []int64) (Rows, error) {
		var rows []nodeScaling
		err := nodeScalingStudyStream(cfg, nil, collect(&rows))
		return rowsOf(rows, err, func(r nodeScaling) string { return failedAs(r.Failed, "scaling %s @ %d nodes", r.App, r.Nodes) })
	}}
	speculation := &study{name: speculationStudy, timing: "[speculation study: %v]\n", seeds: -1, run: func(cfg StudyConfig, _ []int64) (Rows, error) {
		var rows []appSpeculation
		err := speculationStudyStream(cfg, collect(&rows))
		return rowsOf(rows, err, func(r appSpeculation) string { return failedAs(r.Failed, "speculation %s", r.App) })
	}}
	seeds := &study{name: seedsStudy, timing: "[multi-seed study: %v]\n", seeds: +1, run: func(cfg StudyConfig, seeds []int64) (Rows, error) {
		rows, err := SpeculationStudySeeds(cfg, seeds)
		return rowsOf(rows, err, func(a Figure9Aggregate) string {
			if a.Failed == 0 {
				return ""
			}
			return fmt.Sprintf("seeds %s: %d (seed, app) cell(s) failed", a.App, a.Failed)
		})
	}}
	return []Experiment{
		static.experiment("table1", text(renderTable1)),
		static.experiment("table2", text(renderTable2)),
		chars.experiment("characterize", rendering(renderCharacterization)),
		static.experiment("fig6", text(renderFigure6)),
		rtl.experiment("rtl", rendering(func(pts []rtlPoint) string { return renderRTLSweep("em3d", pts) })),
		scaling.experiment("scaling", rendering(renderNodeScaling)),
		speculation.experiment("fig7", rendering(func(rows []appSpeculation) string { return RenderFigure7(Figure7(predictions(rows))) })),
		speculation.experiment("fig8", rendering(func(rows []appSpeculation) string { return RenderFigure8(Figure8(predictions(rows), nil)) })),
		speculation.experiment("table3", rendering(func(rows []appSpeculation) string { return RenderTable3(Table3(predictions(rows))) })),
		speculation.experiment("table4", rendering(func(rows []appSpeculation) string { return RenderTable4(Table4(predictions(rows))) })),
		speculation.experiment("fig9", rendering(func(rows []appSpeculation) string { return renderFigure9(figure9(rows)) })),
		seeds.experiment("fig9", rendering(RenderFigure9Aggregate)),
		speculation.experiment("table5", rendering(func(rows []appSpeculation) string { return renderTable5(table5(rows)) })),
	}
}

func (s *study) experiment(name string, render func(io.Writer, Rows) error) Experiment {
	return Experiment{Name: name, Study: s.name, OptIn: s.optIn, Timing: s.timing, study: s, render: render}
}

// Prints reports whether a run prints the experiment, given whether the
// run aggregates Figure 9 across several seeds: such a run prints the
// aggregate in place of the single-seed Figure 9 and drops the other
// experiments on the single-seed speculation study.
func (e Experiment) Prints(multiSeed bool) bool {
	return e.study.seeds == 0 || (e.study.seeds > 0) == multiSeed
}

// Run runs what the experiment renders under cfg: its study, the static
// workload characterization, or nothing. seeds are the seeds the Figure
// 9 aggregate runs across; no other experiment reads them.
func (e Experiment) Run(cfg StudyConfig, seeds []int64) (Rows, error) {
	if e.study.run == nil {
		return Rows{}, nil
	}
	return e.study.run(cfg, seeds)
}

// Render writes the experiment's artifact to w, from the Rows of a Run
// of it or of another experiment on the same study.
func (e Experiment) Render(w io.Writer, rows Rows) error {
	return e.render(w, rows)
}

// collect returns a study stream's emit function: it appends each row.
func collect[T any](rows *[]T) func(int, T) error {
	return func(_ int, r T) error {
		*rows = append(*rows, r)
		return nil
	}
}

// rowsOf wraps a study's rows with the manifest line failed gives each
// failed one ("" for a row that did not fail).
func rowsOf[T any](rows []T, err error, failed func(T) string) (Rows, error) {
	r := Rows{rows: rows}
	for _, row := range rows {
		if f := failed(row); f != "" {
			r.Failed = append(r.Failed, f)
		}
	}
	return r, err
}

// failedAs is a row's manifest line: the row named by format and args,
// then its error text; "" when the row did not fail.
func failedAs(failed, format string, args ...any) string {
	if failed == "" {
		return ""
	}
	return fmt.Sprintf(format, args...) + ": " + failed
}

// text adapts a renderer that needs no rows.
func text(render func() string) func(io.Writer, Rows) error {
	return func(w io.Writer, _ Rows) error {
		_, err := io.WriteString(w, render())
		return err
	}
}

// rendering adapts a renderer of one study's rows.
func rendering[T any](render func([]T) string) func(io.Writer, Rows) error {
	return func(w io.Writer, r Rows) error {
		rows, _ := r.rows.([]T)
		_, err := io.WriteString(w, render(rows))
		return err
	}
}
