package smp_test

// Spawn-bridge SMP coverage: work stealing, remote wakeups and IPIs must
// treat a Spawn process exactly like the stackless machine its body
// steps. The same two-CPU world — compute-bound procs that get stolen, a
// remote sleeper woken across CPUs — runs with each set of machines
// stepped inline or hosted in Spawn bodies and must produce identical
// timings, accounting, migrations and steal counts.

import (
	"fmt"
	"strings"
	"testing"

	"lrp/internal/kernel"
	"lrp/internal/sim"
	"lrp/internal/smp"
)

func mixedWorld(bridgedWorkers, bridgedSleeper bool) string {
	eng := sim.NewEngine()
	k0 := kernel.New(eng, "cpu0")
	k1 := kernel.New(eng, "cpu1")
	defer k0.Shutdown()
	defer k1.Shutdown()
	cl := smp.New(eng, []*kernel.Kernel{k0, k1}, smp.Config{})

	spawn := func(k *kernel.Kernel, bridged bool, name string, step kernel.StepFn) *kernel.Proc {
		if bridged {
			// The Spawn body steps the same machine, blocking on each
			// request; a pending ReqExit unwinds it at Block.
			return k.Spawn(name, 0, func(p *kernel.Proc) {
				for {
					step(p)
					p.Block()
				}
			})
		}
		return k.SpawnStep(name, 0, step)
	}

	var wq kernel.WaitQ
	ends := map[string]sim.Time{}
	// Two compute-bound processes spawned on CPU 0: the idle CPU 1 steals
	// one. Worker a wakes the remote sleeper partway through.
	worker := func(name string, wake bool) kernel.StepFn {
		iter := 0
		return func(p *kernel.Proc) {
			for {
				if iter == 20 {
					ends[name] = p.Now()
					p.ReqExit()
					return
				}
				iter++
				if wake && iter == 10 {
					wq.WakeupAll()
				}
				if p.ReqCompute(1000) {
					return
				}
			}
		}
	}
	a := spawn(k0, bridgedWorkers, "worker-a", worker("a", true))
	b := spawn(k0, bridgedWorkers, "worker-b", worker("b", false))
	slpc := 0
	s := spawn(k1, bridgedSleeper, "sleeper", func(p *kernel.Proc) {
		for {
			switch slpc {
			case 0:
				slpc = 1
				p.ReqSleep(&wq)
				return
			case 1:
				slpc = 2
				if p.ReqCompute(500) {
					return
				}
			case 2:
				ends["s"] = p.Now()
				p.ReqExit()
				return
			}
		}
	})
	eng.RunFor(sim.Second)

	out := fmt.Sprintf("ends a=%d b=%d s=%d\n", ends["a"], ends["b"], ends["s"])
	for _, p := range []*kernel.Proc{a, b, s} {
		out += fmt.Sprintf("proc %s utime=%d stime=%d home=%s dead=%v\n",
			p.Name, p.UTime, p.STime, p.K.Name, p.Dead())
	}
	for i, st := range cl.Stats() {
		out += fmt.Sprintf("cpu%d steals=%d remotewakes=%d ipis=%d/%d halts=%d\n",
			i, st.Steals, st.RemoteWakes, st.IPIsSent, st.IPIsDelivered, st.Halts)
	}
	return out
}

// TestSMPMixedModeEquivalence checks every hosting combination against
// the all-stackless baseline — the reference check that the Spawn bridge
// issues the stackless request stream across steals and remote wakeups —
// and that the baseline actually exercised the SMP machinery (a steal
// moved a worker, the remote wake landed).
func TestSMPMixedModeEquivalence(t *testing.T) {
	base := mixedWorld(false, false)
	for _, tc := range []struct{ workers, sleeper bool }{
		{true, true}, {true, false}, {false, true},
	} {
		if got := mixedWorld(tc.workers, tc.sleeper); got != base {
			t.Errorf("bridgedWorkers=%v bridgedSleeper=%v diverged:\n%s\nbaseline:\n%s",
				tc.workers, tc.sleeper, got, base)
		}
	}
	if !strings.Contains(base, "steals=1") {
		t.Errorf("baseline world did not steal a worker:\n%s", base)
	}
	if strings.Contains(base, " s=0\n") {
		t.Errorf("remote sleeper never finished:\n%s", base)
	}
}
