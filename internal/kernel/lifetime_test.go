package kernel

// Tests for what a kernel keeps after a process exits: an exited process
// leaves Procs() and drops its body, however it exits, and the processes
// that remain keep their creation order.

import (
	"slices"
	"testing"

	"lrp/internal/sim"
)

// requireForgotten checks that every exited process is dead and holds no
// body, and that k lists exactly live, in order.
func requireForgotten(t *testing.T, k *Kernel, exited, live []*Proc) {
	t.Helper()
	for _, p := range exited {
		if !p.Dead() {
			t.Errorf("%s has not exited", p.Name)
		}
		if p.step != nil || p.bridge != nil {
			t.Errorf("%s still holds its body after exiting", p.Name)
		}
	}
	if got := k.Procs(); !slices.Equal(got, live) {
		t.Errorf("%s lists processes %v, want the live ones %v in creation order",
			k.Name, procNames(got), procNames(live))
	}
}

func procNames(ps []*Proc) []string {
	var out []string
	for _, p := range ps {
		out = append(out, p.Name)
	}
	return out
}

func TestExitedProcessLeavesKernel(t *testing.T) {
	t.Run("step-machine", func(t *testing.T) {
		// Twelve processes: two of every three compute and exit, the rest
		// sleep. Eight exits of twelve compact the list on the way.
		eng, k := newTestKernel(t)
		var wq WaitQ
		var exited, live []*Proc
		for i := 0; i < 12; i++ {
			name := string(rune('a' + i))
			if i%3 == 0 {
				live = append(live, k.SpawnStep(name, 0, func(p *Proc) { p.ReqSleep(&wq) }))
				continue
			}
			ran := false
			exited = append(exited, k.SpawnStep(name, 0, func(p *Proc) {
				if !ran {
					ran = true
					p.ReqCompute(10)
					return
				}
				p.ReqExit()
			}))
		}
		eng.RunFor(sim.Millisecond)
		requireForgotten(t, k, exited, live)
	})

	t.Run("spawn-return", func(t *testing.T) {
		eng, k := newTestKernel(t)
		var wq WaitQ
		a := k.Spawn("a", 0, func(p *Proc) { p.Sleep(&wq) })
		x := k.Spawn("x", 0, func(p *Proc) { p.Compute(10) })
		b := k.Spawn("b", 0, func(p *Proc) { p.Sleep(&wq) })
		eng.RunFor(sim.Millisecond)
		requireForgotten(t, k, []*Proc{x}, []*Proc{a, b})
	})

	t.Run("after-migration", func(t *testing.T) {
		// x is created on cpu0, stolen by the idle cpu1 at its first clock
		// tick, and exits there: it must leave cpu1's list, and cpu0 keeps
		// listing the others in order.
		eng := sim.NewEngine()
		k0, k1 := New(eng, "cpu0"), New(eng, "cpu1")
		t.Cleanup(k0.Shutdown)
		t.Cleanup(k1.Shutdown)
		g := &Group{}
		k0.Group, k1.Group = g, g
		g.Steal = func(thief *Kernel) *Proc {
			victim := k0
			if thief == k0 {
				victim = k1
			}
			if c := victim.StealCandidate(); c != nil && c.MigrateTo(thief, 0) {
				return c
			}
			return nil
		}
		var wq WaitQ
		a := k0.SpawnStep("a", 0, func(p *Proc) { p.ReqSleep(&wq) })
		hog := k0.SpawnStep("hog", 0, func(p *Proc) { p.ReqCompute(sim.Second) })
		ran := false
		x := k0.SpawnStep("x", 0, func(p *Proc) {
			if !ran {
				ran = true
				p.ReqCompute(100)
				return
			}
			p.ReqExit()
		})
		eng.RunFor(50 * sim.Millisecond)
		if x.K != k1 {
			t.Fatalf("x ran on %s, want it stolen by cpu1", x.K.Name)
		}
		requireForgotten(t, k1, []*Proc{x}, nil)
		requireForgotten(t, k0, nil, []*Proc{a, hog})
	})
}
