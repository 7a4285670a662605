// Package stepproto poses as "lrp/internal/app" in the stepreq analyzer's
// tests, exercising the request protocol against the real kernel types:
// yield paths that arm nothing, completion paths that leave a request
// pending, double-arming, discarded helper and conditional-setter results,
// frame reuse without Reset, and mbuf locals held across a yield — plus
// the shapes that must stay silent: the dispatch-machine idiom with
// branch-correlated pc updates, constant-positive-cost setters, and retry
// closures interpreted inline.
package stepproto

import (
	"lrp/internal/kernel"
	"lrp/internal/mbuf"
)

// op is a minimal step-helper frame.
type op struct {
	pc  int
	Err error
}

// Reset rearms the frame for a fresh operation.
func (o *op) Reset() { *o = op{} }

// stepOp is a well-formed two-state helper: arm and yield, then complete.
func stepOp(p *kernel.Proc, o *op) bool {
	if o.pc == 0 {
		o.pc = 1
		p.ReqCompute(5)
		return false
	}
	return true
}

// toggle keeps fixture conditions opaque to the analyzer.
var toggle bool

func flip() bool { return toggle }

// stepYieldBad arms on one path but yields bare on the other.
func stepYieldBad(p *kernel.Proc, o *op) bool {
	if o.pc == 0 {
		o.pc = 1
		p.ReqCompute(5)
		return false
	}
	if o.pc == 1 {
		o.pc = 2
		return false // want `step helper yields \(return false\) with possibly no pending request`
	}
	return true
}

// stepDoneBad completes with the request it just armed still pending.
func stepDoneBad(p *kernel.Proc, o *op) bool {
	o.pc = 1
	p.ReqCompute(5)
	return true // want `step helper completes \(return true\) with a request possibly still pending`
}

// stepDoubleArm arms twice before returning: the second request silently
// replaces the first.
func stepDoubleArm(p *kernel.Proc, wq *kernel.WaitQ) bool {
	p.ReqCompute(5)
	p.ReqSleep(wq) // want `ReqSleep may overwrite a request armed earlier`
	return false
}

// stepCondIgnored discards a conditional setter's result: on the
// zero-cost path nothing is armed.
func stepCondIgnored(p *kernel.Proc, cost int64) bool {
	p.ReqCompute(cost) // want `result of ReqCompute ignored`
	return false
}

// frameReuse steps a completed frame again without a Reset.
func frameReuse(p *kernel.Proc, a *op) bool {
	if !stepOp(p, a) {
		return false
	}
	if !stepOp(p, a) { // want `frame passed to .*stepOp may have already completed on this path without a Reset`
		return false
	}
	return true
}

// frameResetOK is the corrected shape: Reset between operations.
func frameResetOK(p *kernel.Proc, a *op) bool {
	if !stepOp(p, a) {
		return false
	}
	a.Reset()
	if !stepOp(p, a) {
		return false
	}
	return true
}

// inlineDoubleArm catches a double-arm that is only visible through a
// local retry closure: the closure's ReqDelay is interpreted inline, so
// its true edge carries the armed request into the caller.
func inlineDoubleArm(p *kernel.Proc, wq *kernel.WaitQ) bool {
	arm := func(q *kernel.Proc) bool {
		return q.ReqDelay(100)
	}
	if arm(p) {
		p.ReqSleep(wq) // want `ReqSleep may overwrite a request armed earlier`
		return false
	}
	return true
}

// ignoredHelper discards a step helper's result inside a StepFn body: the
// body can no longer tell completion from yield, and may fall off the end
// with nothing armed.
func ignoredHelper(k *kernel.Kernel, a *op) {
	k.SpawnStep("ignored", 0, func(p *kernel.Proc) {
		stepOp(p, a) // want `result of step helper .*stepOp ignored`
	}) // want `step body may return with no pending request`
}

// forgotArm falls off the end of a StepFn body with no request on the
// not-done path.
func forgotArm(k *kernel.Kernel) {
	k.SpawnStep("forgot", 0, func(p *kernel.Proc) {
		if flip() {
			p.ReqExit()
			return
		}
	}) // want `step body may return with no pending request`
}

// acquire and stash stand in for mbuf pool and queue transfer APIs.
func acquire() *mbuf.Mbuf { return nil }

func stash(m *mbuf.Mbuf) {}

// mbufHeld yields while a locally acquired mbuf is still live; mbufMoved
// transfers it first and is clean.
func mbufHeld(k *kernel.Kernel, wq *kernel.WaitQ) {
	k.SpawnStep("leak", 0, func(p *kernel.Proc) {
		m := acquire()
		if m == nil {
			p.ReqExit()
			return
		}
		p.ReqSleep(wq)
	}) // want `mbuf in "m" may still be held at this yield`
	k.SpawnStep("moved", 0, func(p *kernel.Proc) {
		m := acquire()
		stash(m)
		p.ReqSleep(wq)
	})
}

// machineOK is the two-frame dispatch machine from the transfer apps:
// the send frame is Reset only on the branch that routes to the send arm.
// Keeping that branch's state apart from the stay-in-receive state until
// dispatch is exactly what the disjunctive interpreter exists for — a
// joined analysis reports a phantom Reset violation here.
func machineOK(k *kernel.Kernel, recv, send *op) {
	pc := 1
	k.SpawnStep("mach", 0, func(p *kernel.Proc) {
		for {
			switch pc {
			case 1:
				if !stepOp(p, recv) {
					return
				}
				recv.Reset()
				if flip() {
					send.Reset()
					pc = 2
				}
			case 2:
				if !stepOp(p, send) {
					return
				}
				pc = 1
			}
		}
	})
}

// machineMissingReset re-enters a completed frame's arm without a Reset.
func machineMissingReset(k *kernel.Kernel, recv *op) {
	pc := 1
	k.SpawnStep("machbad", 0, func(p *kernel.Proc) {
		for {
			switch pc {
			case 1:
				if !stepOp(p, recv) {
					return
				}
				pc = 2
			case 2:
				if !stepOp(p, recv) { // want `frame passed to .*stepOp may have already completed on this path without a Reset`
					return
				}
				p.ReqExit()
				return
			}
		}
	})
}

// spinner: a constant positive cost can never take the zero-cost no-op
// path, so the discarded result is fine and the body always yields armed.
func spinner(k *kernel.Kernel) {
	k.SpawnStep("spin", 0, func(p *kernel.Proc) {
		p.ReqCompute(10)
	})
}
