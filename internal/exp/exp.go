// Package exp contains one driver per table/figure of the paper's
// evaluation (Section 4). Each driver builds a fresh simulated network,
// runs the paper's workload, and returns the same rows or series the
// paper reports. Absolute numbers depend on the calibrated cost model
// (see internal/core and EXPERIMENTS.md); the drivers exist to reproduce
// the paper's shapes: who wins, by what factor, and where systems
// collapse. Registry is the one table of experiments, which everything
// that lists them iterates.
package exp

import (
	"context"
	"runtime/pprof"

	"lrp/internal/core"
	"lrp/internal/fault"
	"lrp/internal/netsim"
	"lrp/internal/pkt"
	"lrp/internal/runner"
	"lrp/internal/sim"
)

// Standard experiment addresses: machine A (client), B (server), C
// (background traffic source), as in the paper's three-machine setups.
var (
	AddrA = pkt.IP(10, 0, 0, 1)
	AddrB = pkt.IP(10, 0, 0, 2)
	AddrC = pkt.IP(10, 0, 0, 3)
)

// Options tunes experiment durations and execution.
type Options struct {
	// Quick shrinks durations/iterations for tests and smoke benchmarks.
	Quick bool
	// Seed perturbs traffic generators.
	Seed uint64
	// Verbose callbacks (optional): called with progress lines. When
	// Parallel > 1 the callback may be invoked from multiple goroutines
	// concurrently and must be safe for that.
	Progress func(string)
	// Parallel caps how many simulation worlds a driver runs at once;
	// 0 and 1 both mean serial. Every sweep point builds a private
	// engine and results are assembled in declaration order, so the
	// value changes wall-clock time only — never any result.
	Parallel int
	// Pool, when non-nil, is a shared worker pool that the driver's
	// sweeps draw from instead of a private Parallel-worker pool.
	// RunSuite sets it so one bound governs every simulation world
	// across all concurrently-running experiments.
	Pool *runner.Pool
	// ExpStart and ExpDone, when set, are invoked by RunSuite as each
	// experiment driver starts and finishes. With Parallel > 1 drivers
	// run concurrently, so the callbacks must be safe to call from
	// multiple goroutines.
	ExpStart func(name string)
	ExpDone  func(name string)
	// FaultPlan, when non-nil, is applied network-wide to every
	// simulation world an experiment builds (the CLI's -faultplan flag:
	// any experiment under any named impairment scenario). Each world
	// compiles the plan into its own pipeline — pipelines carry per-run
	// RNG state and must never be shared across concurrent worlds.
	FaultPlan *fault.Plan
}

// applyFaults attaches the option-level fault plan to one world's
// network; a no-op without a plan, so archived clean runs are untouched.
func (o Options) applyFaults(nw *netsim.Network) {
	if o.FaultPlan != nil {
		nw.SetFaults(fault.MustNew(*o.FaultPlan))
	}
}

func (o Options) progress(s string) {
	if o.Progress != nil {
		o.Progress(s)
	}
}

// pool returns the worker pool the drivers sweep over: the suite-shared
// pool when one is set, else a private pool of Parallel workers.
func (o Options) pool() *runner.Pool {
	if o.Pool != nil {
		return o.Pool
	}
	return runner.NewPool(o.Parallel)
}

// labeled runs fn under a pprof "arch" label, so a -cpuprofile of a run
// attributes samples to the architecture being simulated. Combined with
// the per-experiment label applied by RunExperiment, profile samples
// split by (experiment, arch); see EXPERIMENTS.md for the workflow.
func labeled(arch string, fn func()) {
	pprof.Do(context.Background(), pprof.Labels("arch", arch), func(context.Context) { fn() })
}

// System identifies a benchmarked kernel configuration: an architecture
// plus a cost model (Table 1 additionally measures the vendor SunOS/Fore
// baseline, which is the BSD architecture with a slower driver).
type System struct {
	Name  string
	Arch  core.Arch
	Costs func() *core.CostModel
}

// Table1Systems are the four kernels of Table 1.
func Table1Systems() []System {
	return []System{
		{Name: "SunOS, Fore driver", Arch: core.ArchBSD, Costs: core.SunOSForeCosts},
		{Name: "4.4 BSD", Arch: core.ArchBSD, Costs: core.DefaultCosts},
		{Name: "LRP (NI Demux)", Arch: core.ArchNILRP, Costs: core.DefaultCosts},
		{Name: "LRP (Soft Demux)", Arch: core.ArchSoftLRP, Costs: core.DefaultCosts},
	}
}

// OverloadSystems are the kernels compared in Figure 3, plus the Mogul &
// Ramakrishnan polling mitigation the paper's related work discusses.
func OverloadSystems() []System {
	return []System{
		{Name: "4.4 BSD", Arch: core.ArchBSD, Costs: core.DefaultCosts},
		{Name: "NI-LRP", Arch: core.ArchNILRP, Costs: core.DefaultCosts},
		{Name: "SOFT-LRP", Arch: core.ArchSoftLRP, Costs: core.DefaultCosts},
		{Name: "Early-Demux", Arch: core.ArchEarlyDemux, Costs: core.DefaultCosts},
		{Name: "Polling (M&R)", Arch: core.ArchPolling, Costs: core.DefaultCosts},
	}
}

// LatencySystems are the kernels compared in Figure 4.
func LatencySystems() []System {
	return []System{
		{Name: "4.4 BSD", Arch: core.ArchBSD, Costs: core.DefaultCosts},
		{Name: "NI-LRP", Arch: core.ArchNILRP, Costs: core.DefaultCosts},
		{Name: "SOFT-LRP", Arch: core.ArchSoftLRP, Costs: core.DefaultCosts},
	}
}

// rig is a reusable N-host experiment network.
type rig struct {
	eng   *sim.Engine
	nw    *netsim.Network
	hosts []*core.Host
}

// newRig builds count hosts of the given system at AddrA, AddrB, AddrC…
// and applies opt's world-level settings (the CLI fault plan).
func newRig(sys System, count int, opt Options) *rig {
	eng := sim.NewEngine()
	nw := netsim.New(eng)
	opt.applyFaults(nw)
	addrs := []pkt.Addr{AddrA, AddrB, AddrC, pkt.IP(10, 0, 0, 4)}
	names := []string{"A", "B", "C", "D"}
	r := &rig{eng: eng, nw: nw}
	for i := 0; i < count; i++ {
		r.hosts = append(r.hosts, core.NewHost(eng, nw, core.Config{
			Name:  names[i],
			Addr:  addrs[i],
			Arch:  sys.Arch,
			Costs: sys.Costs(),
		}))
	}
	return r
}

func (r *rig) shutdown() {
	for _, h := range r.hosts {
		h.Shutdown()
	}
}
