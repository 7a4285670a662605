package exp

import (
	"lrp/internal/results"
	"lrp/internal/runner"
)

// RunSuite runs the named experiments (the canonical suite when names
// is empty) into a fresh suite. With Parallel <= 1 the drivers run
// sequentially in the given order. With Parallel > 1 all drivers run
// concurrently and every sweep point across the whole suite draws from
// one shared Parallel-worker pool, so independent simulation worlds
// from different experiments overlap instead of each driver's stragglers
// serializing the suite. Results are assembled in canonical order and
// every world is a private deterministic simulation, so suite output is
// byte-identical for any Parallel value.
func RunSuite(opt Options, names ...string) (*results.Suite, error) {
	if len(names) == 0 {
		names = SuiteNames()
	}
	s := results.NewSuite(opt.Seed, opt.Quick)
	concurrent := opt.Parallel > 1 && len(names) > 1
	if concurrent && opt.Pool == nil {
		opt.Pool = runner.NewPool(opt.Parallel)
	}
	type outcome struct {
		e   results.Experiment
		err error
	}
	runOne := func(name string) outcome {
		if opt.ExpStart != nil {
			opt.ExpStart(name)
		}
		e, err := RunExperiment(name, opt)
		if opt.ExpDone != nil {
			opt.ExpDone(name)
		}
		return outcome{e: e, err: err}
	}
	var outs []outcome
	if concurrent {
		// The drivers are coordinators: they hold no pool slot themselves
		// (see runner.Concurrent), so their sweep jobs share opt.Pool
		// without risk of starving each other.
		outs = runner.Concurrent(names, func(_ int, name string) outcome {
			return runOne(name)
		})
	} else {
		outs = make([]outcome, 0, len(names))
		for _, name := range names {
			outs = append(outs, runOne(name))
		}
	}
	for _, o := range outs {
		if o.err != nil {
			return nil, o.err
		}
		s.Add(o.e)
	}
	return s, nil
}
