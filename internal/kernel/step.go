package kernel

// Stackless processes.
//
// Every process is stackless: its body is an explicit state machine — a
// StepFn closed over a state word and typed locals — that the scheduler
// calls inline at every dispatch. Where a direct-style body would block
// (Compute, Sleep, ...), a step body stores the same typed request in
// the Proc's req* fields via the Req* setters and returns; the scheduler
// applies the request on return. A simulated context switch is then a
// function return plus a function call, with no channel operations and
// no goroutine wakeup. Spawn (bridge.go) hosts a direct-style body
// behind a StepFn; scheduling, accounting and event order depend only on
// the request stream, so it behaves exactly as the equivalent machine.
//
// Step bodies must not call the blocking Proc methods (Compute, Sleep,
// Delay, Exit, Block, ...); the stepfn lrplint analyzer enforces this
// statically and Proc.yield guards it at runtime. See DESIGN.md §11.

// StepFn is the body of a stackless process. The scheduler calls it
// once per dispatch; it must store exactly one request via a Req*
// setter before returning (returning with no request pending is a
// fatal error). Control state lives in the closure (or a struct the
// closure points at), not on a stack.
type StepFn func(*Proc)

// SpawnStep creates a stackless process running the step state machine
// and makes it runnable. The scheduler calls step inline at each
// dispatch; it must interact with simulated time only through the
// non-blocking Proc methods.
func (k *Kernel) SpawnStep(name string, nice int, step StepFn) *Proc {
	p := k.newProc(name, nice)
	p.step = step
	k.addRunnable(p)
	k.reschedule()
	return p
}

// Request setters. Each stores the typed request a blocking Proc method
// would have yielded and reports whether the caller must return to the
// scheduler. A false result (zero-cost compute, zero delay) means the
// request is a no-op and the step may simply continue — mirroring how
// the blocking variants return without yielding — so step machines can
// be written as `if p.ReqCompute(d) { frame.pc = next; return }`.

// ReqCompute requests d microseconds of user-time CPU (the stackless
// Compute).
//
//lrp:hotpath
func (p *Proc) ReqCompute(d int64) bool {
	if d <= 0 {
		return false
	}
	p.reqKind = reqConsume
	p.reqD = d
	p.reqSys = false
	p.reqChargeTo = nil
	return true
}

// ReqComputeSys requests d microseconds of system-time CPU (the
// stackless ComputeSys).
//
//lrp:hotpath
func (p *Proc) ReqComputeSys(d int64) bool {
	if d <= 0 {
		return false
	}
	p.reqKind = reqConsume
	p.reqD = d
	p.reqSys = true
	p.reqChargeTo = nil
	return true
}

// ReqComputeSysFor requests d microseconds of system-time CPU charged
// to owner (the stackless ComputeSysFor).
//
//lrp:hotpath
func (p *Proc) ReqComputeSysFor(owner *Proc, d int64) bool {
	if d <= 0 {
		return false
	}
	p.reqKind = reqConsume
	p.reqD = d
	p.reqSys = true
	p.reqChargeTo = owner
	return true
}

// ReqSleep requests a block on wq until a wakeup (the stackless Sleep).
// It always requires a return to the scheduler.
//
//lrp:hotpath
func (p *Proc) ReqSleep(wq *WaitQ) bool {
	p.reqKind = reqSleep
	p.reqWq = wq
	p.reqTimeout = 0
	return true
}

// ReqSleepTimeout requests a block on wq until a wakeup or until
// timeout microseconds pass (the stackless SleepTimeout). After the
// process is next stepped, TimedOut reports which one ended the sleep.
//
//lrp:hotpath
func (p *Proc) ReqSleepTimeout(wq *WaitQ, timeout int64) bool {
	p.reqKind = reqSleep
	p.reqWq = wq
	if timeout > 0 {
		p.reqTimeout = timeout
	} else {
		p.reqTimeout = 0
	}
	return true
}

// ReqDelay requests a block for d microseconds of simulated time
// without consuming CPU (the stackless Delay), using the process's
// private delay queue.
//
//lrp:hotpath
func (p *Proc) ReqDelay(d int64) bool {
	if d <= 0 {
		return false
	}
	p.reqKind = reqSleep
	p.reqWq = &p.delayWq
	p.reqTimeout = d
	return true
}

// ReqExit requests process termination (the stackless Exit).
func (p *Proc) ReqExit() bool {
	p.reqKind = reqExit
	return true
}

// TimedOut reports whether the process's last timed sleep ended by
// timeout rather than wakeup. Valid from the dispatch that follows a
// ReqSleepTimeout until the next sleep.
func (p *Proc) TimedOut() bool { return p.timedOut }

// Block yields the request already stored by a Req* setter and returns
// when the process is dispatched again. It is how a Spawn body drives a
// shared step machine: `for !op.Step(p) { p.Block() }`. Called from a
// step body Block panics — a step body returns to the scheduler instead.
// A pending exit request unwinds the goroutine like Exit.
//
//lrp:hotpath
func (p *Proc) Block() {
	switch p.reqKind {
	case reqNone:
		panic("kernel: Block on " + p.Name + " with no pending request") //lrp:coldalloc assertion path
	case reqExit:
		panic(errExited)
	}
	p.yield()
}
