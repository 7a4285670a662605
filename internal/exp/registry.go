package exp

import (
	"context"
	"fmt"
	"io"
	"runtime/pprof"
	"slices"

	"lrp/internal/render"
	"lrp/internal/results"
)

// Spec is one experiment's row in the Registry.
type Spec struct {
	// Name is the experiment's CLI verb and its payload's JSON key in
	// results.Experiment.
	Name string
	// Suite marks the canonical suite: what `lrpbench all` runs and
	// results/lrpbench_full archives. Every other experiment runs only
	// by name or under `lrpbench check`, and is archived on its own as
	// results/lrpbench_<Name>, so the canonical archive stays
	// byte-stable as experiments are added.
	Suite bool

	run   func(Options) results.Experiment
	check func(*results.Experiment) []results.Violation
	print func(io.Writer, *results.Experiment, render.Options)
}

// spec binds one payload field of results.Experiment to the driver that
// fills it, the shape check that judges it and the printer that shows
// it. The shared row type R keeps a row from pairing one experiment's
// driver with another's check or printer.
func spec[R any](name string, suite bool, rows func(*results.Experiment) *[]R,
	run func(Options) []R, check func([]R) []results.Violation, print func(io.Writer, []R, render.Options)) Spec {
	return Spec{
		Name:  name,
		Suite: suite,
		run: func(o Options) results.Experiment {
			e := results.Experiment{Name: name}
			*rows(&e) = run(o)
			return e
		},
		check: func(e *results.Experiment) []results.Violation { return check(*rows(e)) },
		print: func(w io.Writer, e *results.Experiment, o render.Options) { print(w, *rows(e), o) },
	}
}

// Registry is every experiment, in canonical order: the paper's results
// and the ablations and media stream that make up the canonical suite,
// then the standalone fault, multi-core and internet-scale sweeps. The
// CLI verbs, RunSuite, Check, Render and the archive tests all iterate
// it; adding an experiment means one row here plus its payload field in
// results.Experiment.
var Registry = []Spec{
	spec("table1", true, func(e *results.Experiment) *[]Table1Row { return &e.Table1 }, Table1, results.CheckTable1, render.Table1),
	spec("fig3", true, func(e *results.Experiment) *[]Fig3Series { return &e.Fig3 }, Fig3, results.CheckFig3, render.Fig3),
	spec("mlfrr", true, func(e *results.Experiment) *[]MLFRRRow { return &e.MLFRR }, MLFRR, results.CheckMLFRR, render.MLFRR),
	spec("fig4", true, func(e *results.Experiment) *[]Fig4Series { return &e.Fig4 }, Fig4, results.CheckFig4, render.Fig4),
	spec("table2", true, func(e *results.Experiment) *[]Table2Row { return &e.Table2 }, Table2, results.CheckTable2, render.Table2),
	spec("fig5", true, func(e *results.Experiment) *[]Fig5Series { return &e.Fig5 }, Fig5, results.CheckFig5, render.Fig5),
	spec("ablations", true, func(e *results.Experiment) *[]AblationRow { return &e.Ablations }, Ablations, results.CheckAblations, render.Ablations),
	spec("media", true, func(e *results.Experiment) *[]MediaRow { return &e.Media }, MediaJitter, results.CheckMedia, render.Media),
	spec("faults", false, func(e *results.Experiment) *[]FaultCurve { return &e.Faults }, Faults, results.CheckFaults, render.Faults),
	spec("smp", false, func(e *results.Experiment) *[]SMPSeries { return &e.SMP }, SMP, results.CheckSMP, render.SMP),
	spec("wan", false, func(e *results.Experiment) *[]WANSeries { return &e.WAN }, WAN, results.CheckWAN, render.WAN),
}

// Names returns every experiment's name, in registry order.
func Names() []string { return names(false) }

// SuiteNames returns the canonical suite's names, in registry order.
func SuiteNames() []string { return names(true) }

func names(suiteOnly bool) []string {
	var out []string
	for _, r := range Registry {
		if r.Suite || !suiteOnly {
			out = append(out, r.Name)
		}
	}
	return out
}

func lookup(name string) (Spec, bool) {
	for _, r := range Registry {
		if r.Name == name {
			return r, true
		}
	}
	return Spec{}, false
}

// RunExperiment runs one named experiment and returns its typed
// payload. Unknown names are an error, not a panic, so the CLI can
// reject bad verbs cleanly. The run executes under a pprof
// "experiment" label so CPU profiles attribute samples per experiment.
func RunExperiment(name string, opt Options) (results.Experiment, error) {
	r, ok := lookup(name)
	if !ok {
		return results.Experiment{}, fmt.Errorf("exp: unknown experiment %q", name)
	}
	var e results.Experiment
	pprof.Do(context.Background(), pprof.Labels("experiment", name), func(context.Context) { e = r.run(opt) })
	return e, nil
}

// Check verifies the paper shapes of the named experiments in s. A
// named experiment missing from s is itself a violation, so a truncated
// run cannot pass silently. Violations come out in registry order.
func Check(s *results.Suite, names ...string) []results.Violation {
	var out []results.Violation
	for _, r := range Registry {
		if !slices.Contains(names, r.Name) {
			continue
		}
		e := s.Find(r.Name)
		if e == nil {
			out = append(out, results.Violation{Experiment: r.Name, Check: "present", Detail: "experiment missing from suite"})
			continue
		}
		out = append(out, r.check(e)...)
	}
	return out
}

// Render prints every experiment in s the way lrpbench does: each
// payload's table, with a blank line after each when there is more than
// one.
func Render(w io.Writer, s *results.Suite, o render.Options) {
	for i := range s.Experiments {
		if r, ok := lookup(s.Experiments[i].Name); ok {
			r.print(w, &s.Experiments[i], o)
		}
		if len(s.Experiments) > 1 {
			fmt.Fprintln(w)
		}
	}
}
