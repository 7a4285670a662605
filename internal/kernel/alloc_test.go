package kernel

import (
	"testing"

	"lrp/internal/race"
	"lrp/internal/sim"
)

// TestSwitchPathZeroAllocs pins the switch path at zero allocations per
// operation: the Consume keep-CPU path, the proc-to-proc context switch,
// the sleep/timeout/wakeup cycle, and the interrupt-preempted burst. The
// consume, context-switch and sleep-timeout subtests run Spawn bodies,
// pinning the goroutine bridge at zero allocations too.
// Requests travel as typed fields on the Proc (no interface boxing),
// all the closures involved are cached at Spawn/New time, and WorkItems
// ride a free list, so once wait queues and free lists are warm nothing
// on these paths may allocate.
func TestSwitchPathZeroAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not stable under the race detector")
	}

	t.Run("consume-stackless", func(t *testing.T) {
		eng := sim.NewEngine()
		k := New(eng, "alloc")
		k.SpawnStep("worker", 0, func(p *Proc) {
			p.ReqCompute(10)
		})
		eng.RunFor(sim.Millisecond)
		if n := testing.AllocsPerRun(100, func() {
			eng.RunFor(10)
		}); n != 0 {
			t.Errorf("stackless Consume round trip allocates %v per op, want 0", n)
		}
		k.Shutdown()
	})

	t.Run("context-switch-stackless", func(t *testing.T) {
		eng := sim.NewEngine()
		k := New(eng, "alloc")
		var aq, bq WaitQ
		pingpong := func(self, other *WaitQ) StepFn {
			computed := false
			return func(p *Proc) {
				if !computed {
					computed = true
					p.ReqCompute(5)
					return
				}
				other.WakeupAll()
				computed = false
				p.ReqSleep(self)
			}
		}
		k.SpawnStep("a", 0, pingpong(&aq, &bq))
		k.SpawnStep("b", 0, pingpong(&bq, &aq))
		eng.RunFor(sim.Millisecond)
		if n := testing.AllocsPerRun(100, func() {
			eng.RunFor(5) // one burst + inline handoff to the other proc
		}); n != 0 {
			t.Errorf("stackless context switch allocates %v per op, want 0", n)
		}
		k.Shutdown()
	})

	t.Run("interrupted", func(t *testing.T) {
		eng := sim.NewEngine()
		k := New(eng, "alloc")
		k.SpawnStep("worker", 0, func(p *Proc) {
			p.ReqCompute(10)
		})
		var post func()
		post = func() {
			if k.shutdown {
				return
			}
			k.PostHW(WorkItem{Cost: 2})
			eng.After(10, post)
		}
		eng.After(10, post)
		eng.RunFor(sim.Millisecond) // warm: WorkItem free list, event pool
		if n := testing.AllocsPerRun(100, func() {
			eng.RunFor(12) // one burst + one preempting interrupt
		}); n != 0 {
			t.Errorf("interrupted consume cycle allocates %v per op, want 0", n)
		}
		k.Shutdown()
	})

	t.Run("delay", func(t *testing.T) {
		eng := sim.NewEngine()
		k := New(eng, "alloc")
		k.SpawnStep("delayer", 0, func(p *Proc) {
			p.ReqDelay(10)
		})
		eng.RunFor(sim.Millisecond) // warm: private delay queue
		if n := testing.AllocsPerRun(100, func() {
			eng.RunFor(10)
		}); n != 0 {
			t.Errorf("delay cycle allocates %v per op, want 0", n)
		}
		k.Shutdown()
	})

	t.Run("consume", func(t *testing.T) {
		eng := sim.NewEngine()
		k := New(eng, "alloc")
		k.Spawn("worker", 0, func(p *Proc) {
			for {
				p.Compute(10)
			}
		})
		eng.RunFor(sim.Millisecond) // warm: free lists, heap backing array
		if n := testing.AllocsPerRun(100, func() {
			eng.RunFor(10) // exactly one Compute round trip
		}); n != 0 {
			t.Errorf("Consume round trip allocates %v per op, want 0", n)
		}
		k.Shutdown()
	})

	t.Run("context-switch", func(t *testing.T) {
		eng := sim.NewEngine()
		k := New(eng, "alloc")
		var aq, bq WaitQ
		k.Spawn("a", 0, func(p *Proc) {
			for {
				p.Compute(5)
				bq.WakeupAll()
				p.Sleep(&aq)
			}
		})
		k.Spawn("b", 0, func(p *Proc) {
			for {
				p.Compute(5)
				aq.WakeupAll()
				p.Sleep(&bq)
			}
		})
		eng.RunFor(sim.Millisecond) // warm: wait-queue slices at high-water
		if n := testing.AllocsPerRun(100, func() {
			eng.RunFor(5) // one burst + handoff to the other proc
		}); n != 0 {
			t.Errorf("context switch allocates %v per op, want 0", n)
		}
		k.Shutdown()
	})

	t.Run("sleep-timeout", func(t *testing.T) {
		eng := sim.NewEngine()
		k := New(eng, "alloc")
		var wq WaitQ
		k.Spawn("sleeper", 0, func(p *Proc) {
			for {
				p.SleepTimeout(&wq, 10)
			}
		})
		eng.RunFor(sim.Millisecond)
		if n := testing.AllocsPerRun(100, func() {
			eng.RunFor(10) // one park + timer fire + wakeup + dispatch
		}); n != 0 {
			t.Errorf("sleep/timeout cycle allocates %v per op, want 0", n)
		}
		k.Shutdown()
	})
}
