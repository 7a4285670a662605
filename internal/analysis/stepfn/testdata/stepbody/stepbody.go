// Package stepbody poses as "lrp/internal/app" in the stepfn analyzer's
// tests, exercising the stackless contract against the real kernel types:
// blocking Proc calls are flagged in every StepFn position (argument,
// factory return, variable), Req* setters and plain Spawn-style functions
// pass, and nested engine-context closures are left alone.
package stepbody

import "lrp/internal/kernel"

// argPosition: a literal passed to a StepFn parameter is a step body.
func argPosition(k *kernel.Kernel, wq *kernel.WaitQ) {
	k.SpawnStep("bad", 0, func(p *kernel.Proc) {
		p.Compute(10) // want `step body calls the blocking Proc\.Compute`
		p.Sleep(wq)   // want `step body calls the blocking Proc\.Sleep`
	})
	k.SpawnStep("good", 0, func(p *kernel.Proc) {
		if p.ReqCompute(10) { // request setters are the stackless idiom
			return
		}
		p.ReqSleep(wq)
	})
}

// factory: a literal returned from a StepFn-typed result is a step body.
func factory(d int64) kernel.StepFn {
	return func(p *kernel.Proc) {
		p.ComputeSys(d) // want `step body calls the blocking Proc\.ComputeSys`
		p.Exit()        // want `step body calls the blocking Proc\.Exit`
	}
}

// assigned: a literal assigned to a StepFn variable is a step body.
func assigned() kernel.StepFn {
	var step kernel.StepFn
	step = func(p *kernel.Proc) {
		p.Block() // want `step body calls Proc\.Block`
	}
	return step
}

// nested: closures inside a step body run in engine context (timers,
// wakeup hooks) under different rules; the analyzer does not descend.
func nested(k *kernel.Kernel, defer2 func(func())) {
	k.SpawnStep("nested", 0, func(p *kernel.Proc) {
		defer2(func() {
			p.Compute(10) // engine-context closure: out of scope
		})
		p.ReqExit()
	})
}

// plainFunc is not in StepFn position: the blocking wrapper idiom
// (`for !step { p.Block() }`) lives in functions like this one.
func plainFunc(p *kernel.Proc, wq *kernel.WaitQ) {
	p.Sleep(wq)
	p.Block()
}
