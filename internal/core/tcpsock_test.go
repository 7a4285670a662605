package core

import (
	"errors"
	"testing"

	"lrp/internal/kernel"
	"lrp/internal/netsim"
	"lrp/internal/race"
	"lrp/internal/sim"
	"lrp/internal/socket"
	"lrp/internal/tcp"
)

// TestConnTimerRearmAllocs pins re-arming a live connection's timer at
// zero allocations: the expiry thunk is built on the timer's first arm and
// reused, and the cancelled event's storage backs the new one.
func TestConnTimerRearmAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	eng := sim.NewEngine()
	h := NewHost(eng, netsim.New(eng), Config{Name: "server", Addr: addrB, Arch: ArchSoftLRP})
	defer h.Shutdown()
	c := tcp.NewConn(&h.hooks, h.Addr, 80, addrA, 1024, 1)
	h.hooks.ArmTimer(c, tcp.TimerRexmt, sim.Second)
	if n := testing.AllocsPerRun(100, func() {
		h.hooks.ArmTimer(c, tcp.TimerRexmt, sim.Second)
	}); n != 0 {
		t.Errorf("re-arming a connection timer allocates %v per arm, want 0", n)
	}
}

// TestConnTimerExpiryAllocs arms and fires a listener's delayed-ACK timer
// on every kernel and pins each expiry at zero allocations: the expiry
// rides a record on the host's protocol-work queue, drained by the APP
// thread under LRP and by a bound software-interrupt handler elsewhere.
func TestConnTimerExpiryAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	for _, arch := range everyArch {
		t.Run(arch.String(), func(t *testing.T) {
			eng := sim.NewEngine()
			h := NewHost(eng, netsim.New(eng), Config{Name: "server", Addr: addrB, Arch: arch})
			defer h.Shutdown()
			s := h.NewTCPSocket(nil)
			if err := h.BindTCP(s, 80); err != nil {
				t.Fatal(err)
			}
			if err := h.Listen(nil, s, 5); err != nil {
				t.Fatal(err)
			}
			c := s.Conn.(*tcp.Conn)
			expire := func() {
				h.hooks.ArmTimer(c, tcp.TimerDelack, 100)
				eng.RunFor(sim.Millisecond)
			}
			for i := 0; i < 10; i++ {
				expire() // warm the event pool and the work queues
			}
			if n := testing.AllocsPerRun(100, expire); n != 0 {
				t.Errorf("a timer expiry allocates %v, want 0", n)
			}
			// 111 expiries: the warm-up, AllocsPerRun's own, and 100 runs.
			busy := h.K.Stats().SWTime
			if arch.IsLRP() {
				busy = h.appProc.STime
			}
			if want := 111 * h.CM.TCPTimerCost; busy != want {
				t.Errorf("timer processing took %d µs, want %d", busy, want)
			}
		})
	}
}

// TestOpenTwiceFails: Listen and ConnectTCP open a connection only in a
// stream socket from NewTCPSocket that has none yet. Listening twice,
// connecting twice, connecting an accepted socket and listening on a
// socket made by socket.NewSocket each fail with ErrConnOpen, and the
// connections already open keep working.
func TestOpenTwiceFails(t *testing.T) {
	forEachArch(t, func(t *testing.T, r *rig) {
		l := r.server.NewTCPSocket(nil)
		if err := r.server.BindTCP(l, 80); err != nil {
			t.Fatal(err)
		}
		if err := r.server.Listen(nil, l, 5); err != nil {
			t.Fatal(err)
		}
		lc := ConnOf(l)
		if err := r.server.Listen(nil, l, 5); !errors.Is(err, ErrConnOpen) {
			t.Errorf("a second Listen returned %v, want ErrConnOpen", err)
		}
		if ConnOf(l) != lc {
			t.Error("a second Listen replaced the listener's connection")
		}
		if err := r.server.Listen(nil, socket.NewSocket(socket.Stream, nil), 5); !errors.Is(err, ErrConnOpen) {
			t.Errorf("Listen on a socket from socket.NewSocket returned %v, want ErrConnOpen", err)
		}

		var acceptedErr, secondErr error
		served, fetched := false, false
		r.server.K.Spawn("srv", 0, func(p *kernel.Proc) {
			cs, err := r.server.Accept(p, l)
			if err != nil {
				t.Error(err)
				return
			}
			acceptedErr = r.server.ConnectTCP(p, cs, addrA, 9)
			_, err = r.server.SendStream(p, cs, []byte("resp"))
			served = err == nil
			r.server.CloseTCP(p, cs)
		})
		r.client.K.Spawn("cli", 0, func(p *kernel.Proc) {
			s := r.client.NewTCPSocket(p)
			if err := r.client.ConnectTCP(p, s, addrB, 80); err != nil {
				t.Error(err)
				return
			}
			secondErr = r.client.ConnectTCP(p, s, addrB, 80)
			data, err := r.client.RecvStream(p, s, 100)
			fetched = err == nil && string(data) == "resp"
			r.client.CloseTCP(p, s)
		})
		r.eng.RunFor(sim.Second)
		if !errors.Is(acceptedErr, ErrConnOpen) {
			t.Errorf("ConnectTCP on an accepted socket returned %v, want ErrConnOpen", acceptedErr)
		}
		if !errors.Is(secondErr, ErrConnOpen) {
			t.Errorf("a second ConnectTCP returned %v, want ErrConnOpen", secondErr)
		}
		if !served || !fetched {
			t.Errorf("the exchange after the failed opens: served %v, fetched %v", served, fetched)
		}
	})
}
