package kernel

import (
	"errors"

	"lrp/internal/sim"
)

type procState int

const (
	stateRunnable procState = iota
	stateRunning
	stateSleeping
	stateDead
)

func (s procState) String() string {
	switch s {
	case stateRunnable:
		return "runnable"
	case stateRunning:
		return "running"
	case stateSleeping:
		return "sleeping"
	case stateDead:
		return "dead"
	}
	return "?"
}

var (
	errKilled = errors.New("kernel: process killed at shutdown")
	errExited = errors.New("kernel: process exited")
)

// reqKind identifies the request a process hands to the scheduler at
// the end of each step. Requests are carried in typed Proc fields
// (reqD, reqSys, ...) rather than an interface value so issuing one
// never allocates — the switch path is exercised millions of times per
// experiment.
type reqKind uint8

const (
	reqNone reqKind = iota
	reqConsume
	reqSleep
	reqExit
)

// Proc is a simulated process (or kernel thread). Application logic runs
// in the process's step function (or, for Spawn, on its bridged
// goroutine) and interacts with simulated time only through these
// methods. Fields are documented as read-only for application code
// unless stated otherwise.
type Proc struct {
	K    *Kernel
	Name string
	// Nice biases scheduling priority by 2 points per unit, like BSD's
	// nice: +20 yields the weakest user priority.
	Nice int
	// CachePenalty, when nonzero, models a memory-bound working set: each
	// time the process retakes the CPU after something else ran, this many
	// microseconds of cache-refill work are added. Used by the Table 2
	// worker workload.
	CachePenalty int64
	// IntrPenalty, when nonzero, models cache disturbance from interrupt
	// handling: each time the process resumes after interrupt-level work
	// ran, this many microseconds of cache-refill work are added. Eager
	// (interrupt-driven) protocol processing therefore costs a cache-busy
	// receiver more than lazy processing does — one of the locality
	// effects the paper credits for LRP's throughput gains.
	IntrPenalty int64
	// PrioProxy, when set, makes this process schedule at the proxy's
	// priority instead of its own. The LRP asynchronous protocol processing
	// thread uses this to run "at the priority of the application process
	// that uses the associated socket".
	PrioProxy *Proc
	// FixedPrio, when positive, pins the priority (usage and nice are
	// ignored). The LRP idle-time protocol processing thread runs pinned
	// at PrioMax so it only consumes otherwise-idle cycles.
	FixedPrio int
	// Pinned excludes the process from cross-CPU migration (work
	// stealing). Host daemons whose state is tied to one CPU — the
	// idle-time protocol thread, the APP thread — are pinned.
	Pinned bool

	// Accounting (µs). UTime is application compute, STime is system-call
	// work performed in this process's context, IntrCharged is interrupt-
	// level time billed to this process by the accounting policy.
	UTime        int64
	STime        int64
	IntrCharged  int64
	CtxSwitches  uint64
	CacheRefills uint64
	IntrRefills  uint64
	ExitTime     sim.Time

	state     procState
	prio      int
	estcpu    int64 // decaying CPU usage, µs
	seq       uint64
	slot      int // index in K.procs
	wq        *WaitQ
	timedOut  bool
	timeoutEv sim.Event
	timeoutFn func() // cached sleep-timeout callback, allocated once at Spawn

	pendingWork   int64
	pendingSys    bool
	chargeTo      *Proc
	lastBandEpoch uint64

	// The pending request, valid from the Req* setter that stores it until
	// the scheduler applies it.
	reqKind     reqKind
	reqD        int64
	reqSys      bool
	reqChargeTo *Proc
	reqWq       *WaitQ
	reqTimeout  int64

	// step is the process body: the scheduler calls it inline at each
	// dispatch. See step.go.
	step StepFn
	// delayWq is the private wait queue backing ReqDelay/Delay: nothing
	// but the sleep timeout ever wakes it, so one reusable queue per
	// process replaces an allocation per Delay call.
	delayWq WaitQ

	// bridge is set once a Spawn process's goroutine has started; nil for
	// a stackless body. See bridge.go.
	bridge *bridge
	// crash is what a Spawn body panicked with; its exit re-raises it.
	crash any
}

// Compute consumes d microseconds of CPU as user time. The process may be
// preempted and interrupted while computing; it returns once d microseconds
// of CPU have actually been granted.
//
//lrp:hotpath
func (p *Proc) Compute(d int64) {
	if p.ReqCompute(d) {
		p.yield()
	}
}

// ComputeSys consumes d microseconds of CPU as system time (work done in
// kernel context on this process's behalf: system calls, lazy protocol
// processing, data copies).
//
//lrp:hotpath
func (p *Proc) ComputeSys(d int64) {
	if p.ReqComputeSys(d) {
		p.yield()
	}
}

// ComputeSysFor consumes d microseconds of CPU as system time but charges
// the scheduler usage to owner. The LRP asynchronous TCP processing thread
// uses this so that "CPU usage is charged back to that application".
//
//lrp:hotpath
func (p *Proc) ComputeSysFor(owner *Proc, d int64) {
	if p.ReqComputeSysFor(owner, d) {
		p.yield()
	}
}

// Sleep blocks the process on wq until a wakeup.
//
//lrp:hotpath
func (p *Proc) Sleep(wq *WaitQ) {
	p.ReqSleep(wq)
	p.yield()
}

// SleepTimeout blocks the process on wq until a wakeup or until timeout
// microseconds pass; it reports whether it timed out.
//
//lrp:hotpath
func (p *Proc) SleepTimeout(wq *WaitQ, timeout int64) (timedOut bool) {
	p.ReqSleepTimeout(wq, timeout)
	p.yield()
	if timeout <= 0 {
		return false
	}
	return p.timedOut
}

// Delay blocks the process for d microseconds of simulated time without
// consuming CPU (like sleeping on a timer).
func (p *Proc) Delay(d int64) {
	if p.ReqDelay(d) {
		p.yield()
	}
}

// Exit terminates the process immediately, unwinding its goroutine.
func (p *Proc) Exit() {
	if p.bridge == nil {
		panic("kernel: Exit on stackless process " + p.Name + "; request exit with ReqExit") //lrp:coldalloc assertion path
	}
	panic(errExited)
}

// Now returns the current simulated time (valid while the process runs).
func (p *Proc) Now() sim.Time { return p.K.Eng.Now() }

// Dead reports whether the process has exited.
func (p *Proc) Dead() bool { return p.state == stateDead }

// Sleeping reports whether the process is blocked.
func (p *Proc) Sleeping() bool { return p.state == stateSleeping }

// Prio returns the current scheduler priority (lower runs first).
func (p *Proc) Prio() int {
	if p.PrioProxy != nil && p.PrioProxy != p {
		return p.PrioProxy.prio
	}
	return p.prio
}

// EstCPU returns the decayed CPU usage the scheduler currently sees, in µs.
func (p *Proc) EstCPU() int64 { return p.estcpu }

// CPUTime returns user+system time consumed by the process, excluding
// interrupt time merely charged to it.
func (p *Proc) CPUTime() int64 { return p.UTime + p.STime }

// addUsage accumulates scheduler-visible usage with saturation.
func (p *Proc) addUsage(d int64) {
	p.estcpu += d
	if p.estcpu > estcpuMax {
		p.estcpu = estcpuMax
	}
}

// recomputePrio refreshes the scheduling priority from usage and nice,
// clamped to [PUser, PrioMax] as in BSD.
func (p *Proc) recomputePrio() {
	if p.FixedPrio > 0 {
		p.prio = p.FixedPrio
		return
	}
	pr := PUser + int(p.estcpu/estcpuPerPrioPoint) + 2*p.Nice
	if pr < PUser {
		pr = PUser
	}
	if pr > PrioMax {
		pr = PrioMax
	}
	p.prio = pr
}

// reap forgets an exited process: it leaves the process list of p.K, the
// kernel it last ran on (after a migration, not the one that created it),
// and drops its body — the step closure and, for a Spawn process, the
// bridge holding the body — so nothing the body referenced stays
// reachable through the kernel.
func (p *Proc) reap() {
	p.K.dropProc(p)
	p.step = nil
	p.bridge = nil
}

// pendingTarget resolves whose account the pending work bills to.
func (p *Proc) pendingTarget() *Proc {
	if p.chargeTo != nil {
		return p.chargeTo
	}
	return p
}

// wakeup moves a sleeping process back to the run queue. Engine context.
//
// On a multi-CPU host, a wakeup initiated from a different CPU than the
// process's home CPU does not touch the home run queue directly: the
// process is detached from its wait queue (the waker owns that), its
// timeout is cancelled, and runnability is delivered by the cluster's
// RemoteWake hook — an inter-processor interrupt that later calls
// DeliverWakeup on the home CPU. Same-CPU wakeups take the exact
// uniprocessor path.
func (p *Proc) wakeup() {
	if p.state != stateSleeping {
		return
	}
	if g := p.K.Group; g != nil && g.RemoteWake != nil && g.Executing != nil && g.Executing != p.K {
		if p.wq != nil {
			p.wq.remove(p)
			p.wq = nil
		}
		if !p.timeoutEv.IsZero() {
			p.K.Eng.Cancel(p.timeoutEv)
			p.timeoutEv = sim.Event{}
		}
		g.RemoteWake(p)
		return
	}
	if p.wq != nil {
		p.wq.remove(p)
		p.wq = nil
	}
	if !p.timeoutEv.IsZero() {
		p.K.Eng.Cancel(p.timeoutEv)
		p.timeoutEv = sim.Event{}
	}
	p.state = stateRunnable
	p.recomputePrio()
	p.K.addRunnable(p)
	p.K.reschedule()
}

// DeliverWakeup completes a remotely-initiated wakeup on the process's
// home CPU: the IPI delivery path calls it (typically from a
// hardware-interrupt work item on the home kernel) after wakeup already
// detached the process from its wait queue. The process joins the home
// run queue with a fresh FIFO sequence at delivery time, so it never
// reorders processes that became runnable before the IPI landed. A
// process that is no longer sleeping (woken locally in the interim) is
// left alone.
func (p *Proc) DeliverWakeup() {
	if p.state != stateSleeping {
		return
	}
	p.state = stateRunnable
	p.recomputePrio()
	p.K.addRunnable(p)
	p.K.reschedule()
}

// MigrateTo moves a runnable process to dst's run queue, modelling a
// work-stealing migration: the process leaves its home kernel's process
// and run lists, joins dst's (with a fresh FIFO sequence), and pays
// cost microseconds of extra work on its next burst (the cache-refill
// price of running cold on another CPU). It reports whether the
// migration happened: pinned, non-runnable or mid-burst processes — and
// processes already on dst — do not move.
func (p *Proc) MigrateTo(dst *Kernel, cost int64) bool {
	src := p.K
	if dst == src || p.state != stateRunnable || p.Pinned || src.curRunProc == p {
		return false
	}
	src.removeRunnable(p)
	src.dropProc(p)
	p.K = dst
	dst.addProc(p)
	if cost > 0 {
		p.pendingWork += cost
	}
	dst.addRunnable(p)
	return true
}

// decayUsage applies the per-second schedcpu decay (factor 2/3, the BSD
// filter with load average ~1) to every process and refreshes priorities.
func (k *Kernel) decayUsage() {
	for _, p := range k.procs {
		if p == nil || p.state == stateDead {
			continue
		}
		p.estcpu = p.estcpu * 2 / 3
		p.recomputePrio()
	}
	k.closeBurst()
	k.reschedule()
}

// WaitQ is a queue of sleeping processes (a BSD sleep channel).
type WaitQ struct {
	procs []*Proc
}

// Len returns the number of sleeping processes.
func (w *WaitQ) Len() int { return len(w.procs) }

func (w *WaitQ) remove(p *Proc) {
	for i, q := range w.procs {
		if q == p {
			w.procs = append(w.procs[:i], w.procs[i+1:]...)
			return
		}
	}
}

// WakeupAll wakes every process sleeping on the queue (BSD wakeup()).
func (w *WaitQ) WakeupAll() {
	for len(w.procs) > 0 {
		w.procs[0].wakeup()
	}
}

// WakeupOne wakes the process that has slept longest. Among sleepers, the
// paper notes "the process with the highest priority performs the protocol
// processing"; WakeupBest implements that variant.
func (w *WaitQ) WakeupOne() {
	if len(w.procs) > 0 {
		w.procs[0].wakeup()
	}
}

// WakeupBest wakes the highest-priority sleeper.
func (w *WaitQ) WakeupBest() {
	if len(w.procs) == 0 {
		return
	}
	best := w.procs[0]
	for _, p := range w.procs[1:] {
		if p.Prio() < best.Prio() {
			best = p
		}
	}
	best.wakeup()
}
