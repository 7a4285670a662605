// Package kernel simulates a small uniprocessor UNIX kernel: processes,
// a 4.3BSD-style decay-usage scheduler, and the three-level CPU priority
// structure (hardware interrupts > software interrupts > user processes)
// whose consequences the LRP paper analyses.
//
// The kernel is a pure discrete-event model driven by a sim.Engine. CPU
// time is consumed in preemptible "bursts"; hardware- and software-
// interrupt work always preempts process execution, software-interrupt
// work is preempted by hardware interrupts, and processes preempt each
// other according to scheduler priority. CPU time spent in interrupt
// context is charged to a configurable target — by default the current
// process, reproducing BSD's mis-accounting ("CPU time spent in interrupt
// context during the reception of packets is charged to the application
// that happens to execute when a packet arrives").
//
// Every process body is a state machine (SpawnStep) that the scheduler
// steps inline at dispatch: the step stores its next request and
// returns, and the scheduler applies it, so a simulated context switch
// is a function return plus a function call. Spawn hosts a direct-style
// body behind such a step, on a goroutine that runs only while the
// scheduler waits for its next request. See DESIGN.md §9 and §11.
package kernel

import (
	"fmt"

	"lrp/internal/fifo"
	"lrp/internal/sim"
	"lrp/internal/trace"
)

// Scheduler constants, following 4.3BSD conventions: numerically lower
// priority values run first.
const (
	// PUser is the base user-mode priority.
	PUser = 50
	// PrioMax is the worst (weakest) priority.
	PrioMax = 127

	// TickInterval is the statclock period: priority of the running process
	// is recomputed this often.
	TickInterval = 10 * sim.Millisecond
	// RoundRobinInterval is the quantum for round-robin rotation among
	// equal-priority processes.
	RoundRobinInterval = 100 * sim.Millisecond
	// DecayInterval is the schedcpu period: accumulated CPU usage of every
	// process decays this often.
	DecayInterval = 1 * sim.Second

	// estcpuPerPrioPoint converts accumulated CPU microseconds into
	// priority points: one point per 4 ticks of usage, as in BSD's
	// p_usrpri = PUSER + p_cpu/4.
	estcpuPerPrioPoint = 4 * TickInterval
	// estcpuMax caps accumulated usage so priorities stay in range.
	estcpuMax = int64(PrioMax-PUser) * estcpuPerPrioPoint
)

// band identifies which CPU level owns the current burst.
type band int

const (
	bandIdle band = iota
	bandHW
	bandSW
	bandProc
)

func (b band) String() string {
	switch b {
	case bandIdle:
		return "idle"
	case bandHW:
		return "hwintr"
	case bandSW:
		return "swintr"
	case bandProc:
		return "proc"
	}
	return "?"
}

// WorkItem is a unit of interrupt-level work: Cost microseconds of CPU
// followed by Fn (which runs in engine context at completion). ChargeTo
// names the process whose scheduler usage absorbs the cost; nil applies
// the kernel's default policy (charge the current process, as BSD does).
type WorkItem struct {
	Cost     int64
	ChargeTo *Proc
	Fn       func()
}

// Stats aggregates kernel-wide CPU accounting.
type Stats struct {
	HWTime   int64 // µs spent at hardware interrupt level
	SWTime   int64 // µs spent at software interrupt level
	ProcTime int64 // µs spent running processes
	IdleTime int64 // µs idle
	// IntrUnattributed counts interrupt µs that had no process to charge
	// (the machine was idle when the interrupt arrived).
	IntrUnattributed int64
	CtxSwitches      uint64
}

// Busy returns total non-idle CPU microseconds.
func (s Stats) Busy() int64 { return s.HWTime + s.SWTime + s.ProcTime }

// Group links the kernels of one multi-CPU host. The zero value is not
// used; a cluster layer (internal/smp) creates one, points every member
// kernel's Group field at it, and installs the policy hooks. A nil
// Group on a kernel means uniprocessor: every hook site below is
// skipped and behaviour is identical to the pre-SMP kernel.
type Group struct {
	// Executing is the kernel whose context the currently-running code
	// belongs to. Member kernels maintain it at every control transfer
	// into simulation code (burst completion, process dispatch, timer
	// fire); Proc.wakeup compares it against the woken process's home
	// kernel to classify the wakeup as local or cross-CPU.
	Executing *Kernel

	// RemoteWake, when non-nil, delivers a cross-CPU wakeup: the woken
	// process has already been detached from its wait queue and timeout,
	// and the hook must eventually call Proc.DeliverWakeup on the
	// process's home CPU (typically after an IPI latency plus a
	// hardware-interrupt cost). When nil, cross-CPU wakeups degrade to
	// the local path.
	RemoteWake func(p *Proc)

	// Steal, when non-nil, is consulted by a member kernel about to go
	// idle: it may migrate a runnable process from a sibling into k's
	// run queue (Proc.MigrateTo) and return it, or return nil to let k
	// halt.
	Steal func(k *Kernel) *Proc

	// OnHalt, when non-nil, is invoked each time a member kernel goes
	// idle with nothing to run (after a failed steal) — the idle-halt
	// instrumentation point.
	OnHalt func(k *Kernel)
}

// Kernel is one simulated host CPU plus its scheduler state. Create with
// New. All methods must be called from simulation context: an event
// callback, a step body, or a Spawn body while it is dispatched (the
// scheduler waits for it, so only one of those is ever active).
type Kernel struct {
	Eng  *sim.Engine
	Name string

	// CtxSwitchCost is charged (as system time) to a process when it takes
	// the CPU from a different process.
	CtxSwitchCost int64

	// Group links this kernel to its sibling CPUs; nil on a
	// uniprocessor. See Group.
	Group *Group

	// Trace, when non-nil, records scheduler and interrupt events.
	Trace *trace.Log

	// hwQ and swQ hold the pending interrupt work by value; the head of
	// the band that owns the CPU is the item running.
	hwQ fifo.Queue[WorkItem]
	swQ fifo.Queue[WorkItem]

	// procs lists the processes that have not exited, in creation (after
	// a migration, arrival) order. A process that exits or migrates away
	// leaves a nil hole at its slot; dropProc squeezes the holes out, in
	// order, once they make up half the list, so removal is O(1)
	// amortized even among 100k live processes.
	procs []*Proc
	holes int // nil entries in procs
	runq  []*Proc
	seq   uint64

	cur        band
	curRunProc *Proc // process owning the burst when cur is bandProc
	burstEv    sim.Event
	burstStart sim.Time
	idleStart  sim.Time

	// burstDoneFn caches the onBurstDone method value so opening a burst
	// does not allocate a closure.
	burstDoneFn func()

	// curProc is the BSD "curproc": the process most recently dispatched.
	// Interrupt time with no explicit charge target is charged here.
	curProc *Proc
	// lastOnCPU tracks the last process to own a CPU burst, for context
	// switch cost and cache-penalty modelling.
	lastOnCPU *Proc

	// inSched is held while the scheduling loop runs and, crucially, for
	// the whole of every dispatched user step: kernel calls made by user
	// code (wakeups, interrupt posts) defer their reschedule to the step's
	// end via needResched instead of recursing into the dispatcher.
	inSched     bool
	needResched bool
	rrBypass    bool

	// bandEpoch increments whenever interrupt-band work consumes CPU; used
	// to detect that a process is resuming after interrupt activity.
	bandEpoch uint64

	stats    Stats
	shutdown bool
}

// New creates a kernel on eng and starts its periodic scheduler machinery.
func New(eng *sim.Engine, name string) *Kernel {
	k := &Kernel{Eng: eng, Name: name, idleStart: eng.Now()}
	k.burstDoneFn = k.onBurstDone
	k.startClocks()
	return k
}

func (k *Kernel) startClocks() {
	var tick, rr, decay func()
	tick = func() {
		if k.shutdown {
			return
		}
		k.closeBurst()
		k.recomputePriorities()
		k.reschedule()
		k.Eng.After(TickInterval, tick)
	}
	rr = func() {
		if k.shutdown {
			return
		}
		k.roundRobin()
		k.Eng.After(RoundRobinInterval, rr)
	}
	decay = func() {
		if k.shutdown {
			return
		}
		k.decayUsage()
		k.Eng.After(DecayInterval, decay)
	}
	k.Eng.After(TickInterval, tick)
	k.Eng.After(RoundRobinInterval, rr)
	k.Eng.After(DecayInterval, decay)
}

// Now returns the current simulated time.
func (k *Kernel) Now() sim.Time { return k.Eng.Now() }

// enter marks this kernel as the owner of the executing context (a
// no-op on a uniprocessor). Called at every control transfer into code
// that may invoke wakeups: burst completion, process dispatch, timer
// expiry.
//
//lrp:hotpath
func (k *Kernel) enter() {
	if k.Group != nil {
		k.Group.Executing = k
	}
}

// Stats returns a copy of the kernel-wide accounting counters, with any
// in-progress burst or idle period folded in up to the current instant.
func (k *Kernel) Stats() Stats {
	k.closeBurst()
	k.reschedule()
	return k.stats
}

// Procs returns the processes on this kernel that have not exited, in
// creation order (a process that migrated here counts from its arrival).
// A process leaves the list when it exits.
func (k *Kernel) Procs() []*Proc {
	out := make([]*Proc, 0, len(k.procs)-k.holes)
	for _, p := range k.procs {
		if p != nil {
			out = append(out, p)
		}
	}
	return out
}

// CurProc returns the most recently dispatched process (BSD curproc); nil
// before any process has run.
func (k *Kernel) CurProc() *Proc { return k.curProc }

// PostHW queues hardware-interrupt work. It preempts everything else on
// this CPU and runs FIFO with other hardware work.
//
//lrp:hotpath
func (k *Kernel) PostHW(item WorkItem) {
	k.hwQ.Enqueue(item)
	k.reschedule()
}

// PostSW queues software-interrupt work. It preempts process execution
// but not hardware interrupts.
//
//lrp:hotpath
func (k *Kernel) PostSW(item WorkItem) {
	k.swQ.Enqueue(item)
	k.reschedule()
}

// SWPending returns the number of queued software-interrupt work items.
func (k *Kernel) SWPending() int { return k.swQ.Len() }

// newProc allocates and registers a process shell: runnable state and
// process list membership. The caller attaches a body and makes it
// runnable.
func (k *Kernel) newProc(name string, nice int) *Proc {
	p := &Proc{
		K:     k,
		Name:  name,
		Nice:  nice,
		state: stateRunnable,
	}
	p.recomputePrio()
	k.addProc(p)
	return p
}

// addProc appends p to the process list.
func (k *Kernel) addProc(p *Proc) {
	p.slot = len(k.procs)
	k.procs = append(k.procs, p)
}

// dropProc removes p from the process list, leaving a hole at its slot.
// Once holes make up half the list it is compacted in place, keeping the
// remaining processes in order.
func (k *Kernel) dropProc(p *Proc) {
	k.procs[p.slot] = nil
	k.holes++
	if 2*k.holes < len(k.procs) {
		return
	}
	n := 0
	for _, q := range k.procs {
		if q != nil {
			q.slot = n
			k.procs[n] = q
			n++
		}
	}
	clear(k.procs[n:])
	k.procs = k.procs[:n]
	k.holes = 0
}

// Shutdown terminates all live process goroutines so a finished simulation
// does not leak them. The kernel is unusable afterwards.
func (k *Kernel) Shutdown() {
	k.shutdown = true
	if !k.burstEv.IsZero() {
		k.Eng.Cancel(k.burstEv)
		k.burstEv = sim.Event{}
	}
	for _, p := range k.procs {
		if p == nil || p.state == stateDead {
			continue
		}
		if !p.timeoutEv.IsZero() {
			k.Eng.Cancel(p.timeoutEv)
			p.timeoutEv = sim.Event{}
		}
		p.state = stateDead
		if p.bridge != nil {
			// A started Spawn process: unwind its goroutine. Any other
			// process has none — marking it dead is enough.
			p.bridge.kill()
		}
	}
	k.runq = nil
}

// addRunnable appends p to the run queue with a fresh FIFO sequence.
//
//lrp:coldalloc amortized: run-queue capacity is retained across scheduling rounds (removal shifts in place)
func (k *Kernel) addRunnable(p *Proc) {
	p.seq = k.seq
	k.seq++
	k.runq = append(k.runq, p)
}

// removeRunnable deletes p from the run queue if present.
func (k *Kernel) removeRunnable(p *Proc) {
	for i, q := range k.runq {
		if q == p {
			k.runq = append(k.runq[:i], k.runq[i+1:]...)
			return
		}
	}
}

// pickProc selects the runnable process with the best (lowest) priority,
// breaking ties in favour of the last process on CPU (to avoid gratuitous
// switches) and then FIFO order.
func (k *Kernel) pickProc() *Proc {
	var best *Proc
	for _, p := range k.runq {
		if best == nil {
			best = p
			continue
		}
		if p.Prio() < best.Prio() {
			best = p
			continue
		}
		if p.Prio() == best.Prio() {
			switch {
			case k.rrBypass:
				if p.seq < best.seq {
					best = p
				}
			case p == k.lastOnCPU && best != k.lastOnCPU:
				best = p
			case best != k.lastOnCPU && p.seq < best.seq:
				best = p
			}
		}
	}
	return best
}

// StealCandidate returns the process a sibling CPU should steal from
// this kernel's run queue, or nil: the best-priority runnable process
// that can migrate (see Proc.MigrateTo) and is not the process this
// kernel would dispatch next — a CPU with a single runnable process is
// left alone. Ties break FIFO, matching pickProc's determinism.
func (k *Kernel) StealCandidate() *Proc {
	next := k.pickProc()
	var best *Proc
	for _, p := range k.runq {
		if p == next || p.Pinned || k.curRunProc == p || p.state != stateRunnable {
			continue
		}
		if best == nil || p.Prio() < best.Prio() || (p.Prio() == best.Prio() && p.seq < best.seq) {
			best = p
		}
	}
	return best
}

// charge records d microseconds of CPU consumed at level b on behalf of
// target (nil means the current process, BSD-style).
func (k *Kernel) charge(b band, target *Proc, sys bool, d int64) {
	if d <= 0 {
		return
	}
	switch b {
	case bandHW:
		k.stats.HWTime += d
	case bandSW:
		k.stats.SWTime += d
	case bandProc:
		k.stats.ProcTime += d
	case bandIdle:
		k.stats.IdleTime += d
		return
	}
	if b == bandProc {
		target.addUsage(d)
		if sys {
			target.STime += d
		} else {
			target.UTime += d
		}
		return
	}
	// Interrupt-level time.
	if target == nil {
		target = k.curProc
	}
	if target == nil || target.state == stateDead {
		k.stats.IntrUnattributed += d
		return
	}
	target.addUsage(d)
	target.IntrCharged += d
}

// closeBurst accounts the elapsed portion of the current burst (or idle
// period) and cancels its completion event. After closeBurst the CPU is in
// a "nothing dispatched" state; reschedule must follow.
func (k *Kernel) closeBurst() {
	now := k.Eng.Now()
	if k.cur == bandIdle {
		if now > k.idleStart {
			k.stats.IdleTime += now - k.idleStart
			k.idleStart = now
		}
		return
	}
	if k.burstEv.IsZero() {
		return
	}
	elapsed := now - k.burstStart
	k.Eng.Cancel(k.burstEv)
	k.burstEv = sim.Event{}
	switch k.cur {
	case bandHW, bandSW:
		// Fetched afresh: a post during the burst may have grown the ring
		// and moved the running item.
		it := k.intrQ(k.cur).Front()
		it.Cost -= elapsed
		if elapsed > 0 {
			k.bandEpoch++
		}
		k.charge(k.cur, it.ChargeTo, false, elapsed)
	case bandProc:
		p := k.curRunProc
		p.pendingWork -= elapsed
		k.charge(bandProc, p.pendingTarget(), p.pendingSys, elapsed)
	}
	k.cur = bandIdle
	k.curRunProc = nil
	k.idleStart = now
}

// intrQ returns the interrupt queue of band b (bandHW or bandSW).
func (k *Kernel) intrQ(b band) *fifo.Queue[WorkItem] {
	if b == bandHW {
		return &k.hwQ
	}
	return &k.swQ
}

// reschedule is the dispatcher: it decides which band/process should own
// the CPU and opens a burst for it. Re-entrant calls (from code running
// inside a dispatched process step) are deferred to the step's end.
func (k *Kernel) reschedule() {
	if k.inSched {
		k.needResched = true
		return
	}
	if k.shutdown {
		return
	}
	k.inSched = true

	for {
		k.needResched = false
		k.closeBurst()
		switch {
		case k.hwQ.Len() > 0:
			k.openItemBurst(bandHW)
		case k.swQ.Len() > 0:
			k.openItemBurst(bandSW)
		default:
			p := k.pickProc()
			if p == nil && k.Group != nil && k.Group.Steal != nil {
				// About to go idle: ask the cluster's work-stealing
				// policy for a migratable process from a sibling CPU.
				p = k.Group.Steal(k)
			}
			if p == nil {
				// Idle ("halt"): idleStart was set by closeBurst; the
				// next event to touch this CPU un-halts it.
				if k.Group != nil && k.Group.OnHalt != nil {
					k.Group.OnHalt(k)
				}
				k.inSched = false
				return
			}
			if p.pendingWork <= 0 {
				k.runProcStep(p)
				continue // process state changed; re-pick
			}
			k.openProcBurst(p)
		}
		if !k.needResched {
			k.inSched = false
			return
		}
	}
}

// openItemBurst starts executing the head work item of band b's queue.
func (k *Kernel) openItemBurst(b band) {
	k.cur = b
	k.burstStart = k.Eng.Now()
	k.burstEv = k.Eng.After(max(k.intrQ(b).Front().Cost, 0), k.burstDoneFn)
}

// openProcBurst starts executing p's pending work, applying context-switch
// and cache-refill costs when the CPU is changing hands.
//
//lrp:hotpath
func (k *Kernel) openProcBurst(p *Proc) {
	if k.lastOnCPU != p {
		if k.Trace != nil {
			k.Trace.Add(trace.KindDispatch, "%s: %s takes CPU (prio %d)", k.Name, p.Name, p.Prio()) //lrp:coldalloc vararg boxing; only reached with tracing enabled
		}
		if k.lastOnCPU != nil {
			k.stats.CtxSwitches++
			p.CtxSwitches++
			if k.CtxSwitchCost > 0 {
				p.pendingWork += k.CtxSwitchCost
			}
		}
		if p.CachePenalty > 0 && k.lastOnCPU != nil {
			p.pendingWork += p.CachePenalty
			p.CacheRefills++
		}
		k.lastOnCPU = p
	}
	if p.IntrPenalty > 0 && p.lastBandEpoch != k.bandEpoch {
		p.pendingWork += p.IntrPenalty
		p.IntrRefills++
	}
	p.lastBandEpoch = k.bandEpoch
	k.curProc = p
	k.cur = bandProc
	k.curRunProc = p
	k.burstStart = k.Eng.Now()
	k.burstEv = k.Eng.After(p.pendingWork, k.burstDoneFn)
}

// onBurstDone fires when the current burst's work is exhausted.
//
//lrp:hotpath
func (k *Kernel) onBurstDone() {
	k.enter()
	was, p := k.cur, k.curRunProc
	k.closeBurst()
	switch was {
	case bandHW, bandSW:
		item, _ := k.intrQ(was).Dequeue()
		if k.Trace != nil {
			if was == bandHW {
				k.Trace.Add(trace.KindIntr, "%s: hw work done", k.Name) //lrp:coldalloc vararg boxing; only reached with tracing enabled
			} else {
				k.Trace.Add(trace.KindSoftIntr, "%s: sw work done", k.Name) //lrp:coldalloc vararg boxing; only reached with tracing enabled
			}
		}
		if item.Fn != nil {
			item.Fn()
		}
	case bandProc:
		if p.pendingWork <= 0 {
			// The process keeps the CPU: step it inline, apply its
			// request, and let the dispatcher pick what runs next.
			k.inSched = true
			k.runProcStep(p)
			k.inSched = false
		}
	}
	k.reschedule()
}

// runProcStep dispatches p: it runs p's next step inline and applies the
// request the step returns with. The caller holds inSched as the
// user-window guard for the duration of the step.
//
//lrp:hotpath
func (k *Kernel) runProcStep(p *Proc) {
	k.enter()
	k.curProc = p
	p.state = stateRunning
	p.reqKind = reqNone
	p.step(p)
	if p.reqKind == reqNone {
		panic("kernel: step body of " + p.Name + " returned without a request") //lrp:coldalloc assertion path
	}
	k.applyRequest(p)
}

// applyRequest consumes p's pending request, updating scheduler state.
//
//lrp:hotpath
func (k *Kernel) applyRequest(p *Proc) {
	switch p.reqKind {
	case reqConsume:
		p.state = stateRunnable
		p.pendingWork = p.reqD
		p.pendingSys = p.reqSys
		p.chargeTo = p.reqChargeTo
	case reqSleep:
		p.state = stateSleeping
		p.pendingWork = 0
		k.removeRunnable(p)
		p.wq = p.reqWq
		p.reqWq.procs = append(p.reqWq.procs, p) //lrp:coldalloc wait queues grow to high-water, then recycle capacity
		p.reqWq = nil
		p.timedOut = false
		if p.reqTimeout > 0 {
			if p.timeoutFn == nil {
				p.bindTimeout()
			}
			p.timeoutEv = k.Eng.After(p.reqTimeout, p.timeoutFn)
		}
	case reqExit:
		p.state = stateDead
		p.pendingWork = 0
		k.removeRunnable(p)
		p.ExitTime = k.Now()
		if p.crash != nil {
			panic(fmt.Sprintf("kernel: process %q crashed: %v", p.Name, p.crash)) //lrp:coldalloc crash path
		}
		p.reap()
	default:
		panic(fmt.Sprintf("kernel: process %q issued unknown request %d", p.Name, p.reqKind)) //lrp:coldalloc assertion path
	}
	p.reqKind = reqNone
}

// recomputePriorities refreshes priorities of all runnable processes.
func (k *Kernel) recomputePriorities() {
	for _, p := range k.runq {
		p.recomputePrio()
	}
}

// roundRobin rotates the current process to the back of its priority class.
func (k *Kernel) roundRobin() {
	k.closeBurst()
	if p := k.lastOnCPU; p != nil && p.state != stateDead && p.state != stateSleeping {
		// Rotate the incumbent to the back of its priority class and let
		// the pick ignore the usual keep-running tie preference once.
		p.seq = k.seq
		k.seq++
		k.rrBypass = true
	}
	k.reschedule()
	k.rrBypass = false
}
