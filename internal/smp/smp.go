// Package smp composes M simulated kernels (internal/kernel) into one
// multi-CPU host. Each kernel keeps its own run queue, interrupt
// queues, and accounting — exactly the per-CPU scheduler state of a
// real SMP — and the cluster supplies the glue the paper's
// uniprocessor evaluation never needed:
//
//   - cross-CPU wakeups: a process woken from another CPU's context is
//     made runnable on its home CPU by an inter-processor interrupt
//     (sim.IPI) — flight latency, then a hardware-interrupt work item
//     on the home kernel that drains the pending-wakeup list. The IPI
//     line coalesces, so a burst of remote wakeups costs one
//     interrupt.
//   - work stealing: a CPU about to go idle may migrate one runnable,
//     unpinned process from a sibling's run queue, paying an explicit
//     migration cost (the cache-refill price of running cold).
//   - idle halting: a CPU with nothing to run simply stops consuming
//     events until an interrupt, IPI, or clock tick touches it; halts
//     are counted per CPU.
//
// The cluster owns no scheduling policy beyond these hooks; everything
// else — priorities, decay, preemption, charging — is the per-kernel
// machinery unchanged. A host with one CPU never creates a cluster,
// and a kernel with a nil Group behaves byte-identically to the
// pre-SMP kernel.
package smp

import (
	"fmt"

	"lrp/internal/kernel"
	"lrp/internal/sim"
)

// Default cost parameters, in microseconds. They are deliberately
// small next to the per-packet protocol costs: IPIs and migrations are
// cheap, it is the serialization they imply that the experiments
// measure.
const (
	DefaultIPILatency  = 2
	DefaultIPICost     = 8
	DefaultMigrateCost = 30
)

// Config parameterizes a cluster. Zero fields take the defaults above.
type Config struct {
	// IPILatency is the flight time of an inter-processor interrupt.
	IPILatency int64
	// IPICost is the hardware-interrupt work the receiving CPU performs
	// per delivered IPI (charged like any other interrupt).
	IPICost int64
	// MigrateCost is added to a stolen process's next burst: the cache
	// refill it pays for running cold on the thief CPU.
	MigrateCost int64
}

// CPUStats counts one CPU's SMP events.
type CPUStats struct {
	Halts         uint64 // transitions to idle with nothing to run
	Steals        uint64 // processes this CPU stole from siblings
	RemoteWakes   uint64 // wakeups queued for this CPU from other CPUs
	IPIsSent      uint64 // signals raised on this CPU's line
	IPIsDelivered uint64 // interrupts actually taken (coalescing absorbs the rest)
}

// cpu is one member: its kernel, its inbound IPI line, and the wakeup
// list that line's interrupt drains.
type cpu struct {
	k            *kernel.Kernel
	ipi          sim.IPI
	pendingWakes []*kernel.Proc
	stats        CPUStats
}

// Cluster links M kernels sharing one engine into a multi-CPU host.
type Cluster struct {
	Eng  *sim.Engine
	cfg  Config
	cpus []*cpu
	g    *kernel.Group
}

// New builds a cluster over ks (at least two kernels on the same
// engine), pointing every kernel's Group at the shared group and
// installing the remote-wake, steal, and halt hooks.
func New(eng *sim.Engine, ks []*kernel.Kernel, cfg Config) *Cluster {
	if len(ks) < 2 {
		panic(fmt.Sprintf("smp: cluster needs at least 2 CPUs, got %d", len(ks)))
	}
	if cfg.IPILatency == 0 {
		cfg.IPILatency = DefaultIPILatency
	}
	if cfg.IPICost == 0 {
		cfg.IPICost = DefaultIPICost
	}
	if cfg.MigrateCost == 0 {
		cfg.MigrateCost = DefaultMigrateCost
	}
	cl := &Cluster{Eng: eng, cfg: cfg, g: &kernel.Group{}}
	for _, k := range ks {
		c := &cpu{k: k}
		c.ipi = sim.IPI{Eng: eng, Latency: cfg.IPILatency}
		cl.cpus = append(cl.cpus, c)
	}
	for _, c := range cl.cpus {
		c := c
		// The delivered signal is a hardware interrupt on the home CPU;
		// its work item drains every wakeup queued while it was in
		// flight. The drain is bound once, not built per IPI.
		drain := func() { cl.drainWakes(c) }
		c.ipi.Deliver = func() {
			c.stats.IPIsDelivered++
			c.k.PostHW(kernel.WorkItem{Cost: cl.cfg.IPICost, Fn: drain})
		}
		c.k.Group = cl.g
	}
	cl.g.RemoteWake = cl.remoteWake
	cl.g.Steal = cl.steal
	cl.g.OnHalt = cl.onHalt
	return cl
}

// Kernels returns the member kernels in CPU order.
func (cl *Cluster) Kernels() []*kernel.Kernel {
	out := make([]*kernel.Kernel, len(cl.cpus))
	for i, c := range cl.cpus {
		out[i] = c.k
	}
	return out
}

// Stats returns a per-CPU snapshot of SMP counters, folding in the IPI
// line counts.
func (cl *Cluster) Stats() []CPUStats {
	out := make([]CPUStats, len(cl.cpus))
	for i, c := range cl.cpus {
		s := c.stats
		s.IPIsSent = c.ipi.Sent
		s.IPIsDelivered = c.ipi.Delivered
		out[i] = s
	}
	return out
}

// cpuOf resolves a kernel to its member entry (linear scan: clusters
// are small and sim-core code avoids map iteration).
func (cl *Cluster) cpuOf(k *kernel.Kernel) *cpu {
	for _, c := range cl.cpus {
		if c.k == k {
			return c
		}
	}
	panic(fmt.Sprintf("smp: kernel %q is not a cluster member", k.Name))
}

// remoteWake queues p for delivery on its home CPU and raises that
// CPU's IPI line. Called by the kernel's wakeup path after p has been
// detached from its wait queue.
//
//lrp:hotpath
func (cl *Cluster) remoteWake(p *kernel.Proc) {
	c := cl.cpuOf(p.K)
	c.pendingWakes = append(c.pendingWakes, p) //lrp:coldalloc grows to high-water, then recycles capacity
	c.stats.RemoteWakes++
	c.ipi.Send()
}

// drainWakes completes every pending remote wakeup on c, in arrival
// order. DeliverWakeup assigns fresh run-queue sequence numbers at
// delivery time, so IPI-delivered processes never reorder processes
// that became runnable on c before the interrupt landed.
func (cl *Cluster) drainWakes(c *cpu) {
	for i := 0; i < len(c.pendingWakes); i++ {
		p := c.pendingWakes[i]
		c.pendingWakes[i] = nil
		p.DeliverWakeup()
	}
	c.pendingWakes = c.pendingWakes[:0]
}

// steal runs when thief is about to go idle: scan the siblings in CPU
// order starting after the thief (deterministic round order) and
// migrate the first victim's best stealable process. The victim's
// next-to-run process is never taken, so a CPU with a single runnable
// process is left alone.
func (cl *Cluster) steal(thief *kernel.Kernel) *kernel.Proc {
	self := 0
	for i, c := range cl.cpus {
		if c.k == thief {
			self = i
			break
		}
	}
	n := len(cl.cpus)
	for off := 1; off < n; off++ {
		victim := cl.cpus[(self+off)%n]
		cand := victim.k.StealCandidate()
		if cand == nil {
			continue
		}
		if cand.MigrateTo(thief, cl.cfg.MigrateCost) {
			cl.cpus[self].stats.Steals++
			return cand
		}
	}
	return nil
}

// onHalt counts a CPU going idle with nothing to run.
func (cl *Cluster) onHalt(k *kernel.Kernel) {
	cl.cpuOf(k).stats.Halts++
}
