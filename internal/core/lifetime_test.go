package core

// Tests for what a host keeps after a connection dies: a socket leaves
// Sockets() at its final close, an exited process leaves its kernel's
// Procs(), and no Stats() counter moves at a release or falls at a close.

import (
	"reflect"
	"slices"
	"testing"

	"lrp/internal/kernel"
	"lrp/internal/netsim"
	"lrp/internal/pkt"
	"lrp/internal/sim"
	"lrp/internal/socket"
	"lrp/internal/tcp"
)

// TestConnectionChurnReleasesState churns 1000 short HTTP/1.0-style
// connections, the server closing first, with a 10 ms TIME_WAIT. Once the
// last TIME_WAIT expires both hosts hold exactly the sockets and processes
// they held before the churn, every connection is closed with no timer
// armed, none was armed after its connection closed, and the releases
// leave Stats() untouched.
func TestConnectionChurnReleasesState(t *testing.T) {
	for _, arch := range []Arch{ArchBSD, ArchSoftLRP} {
		t.Run(arch.String(), func(t *testing.T) {
			cm := DefaultCosts()
			cm.TimeWaitDur = 10 * sim.Millisecond
			eng := sim.NewEngine()
			nw := netsim.New(eng)
			server := NewHost(eng, nw, Config{Name: "server", Addr: addrB, Arch: arch, Costs: cm})
			client := NewHost(eng, nw, Config{Name: "client", Addr: addrA, Arch: arch, Costs: cm})
			t.Cleanup(func() {
				server.Shutdown()
				client.Shutdown()
			})
			hosts := []*Host{server, client}
			// A timer armed on a closed connection would keep its record
			// alive and fire into it: count every such arm.
			lateArms := 0
			for _, h := range hosts {
				arm := h.hooks.ArmTimer
				h.hooks.ArmTimer = func(c *tcp.Conn, tm tcp.Timer, delay int64) {
					if c.State == tcp.Closed {
						lateArms++
					}
					arm(c, tm, delay)
				}
			}
			var conns []*tcp.Conn // every connection of the churn, both ends

			server.K.Spawn("httpd", 0, func(p *kernel.Proc) {
				l := server.NewTCPSocket(p)
				if err := server.BindTCP(l, 80); err != nil {
					t.Error(err)
					return
				}
				if err := server.Listen(p, l, 8); err != nil {
					t.Error(err)
					return
				}
				for {
					cs, err := server.Accept(p, l)
					if err != nil {
						return
					}
					conns = append(conns, ConnOf(cs))
					server.K.Spawn("handler", 0, func(p *kernel.Proc) {
						if req, _ := server.RecvStream(p, cs, 1024); req != nil {
							_, _ = server.SendStream(p, cs, []byte("resp"))
						}
						server.CloseTCP(p, cs)
					})
				}
			})
			eng.RunFor(sim.Millisecond)
			type snapshot struct {
				socks []*socket.Socket
				procs []*kernel.Proc
				stats Stats
			}
			snap := func(h *Host) snapshot { return snapshot{h.Sockets(), h.K.Procs(), h.Stats()} }
			pre := []snapshot{snap(server), snap(client)}

			const n = 1000
			done := 0
			client.K.Spawn("client", 0, func(p *kernel.Proc) {
				for i := 0; i < n; i++ {
					s := client.NewTCPSocket(p)
					if err := client.ConnectTCP(p, s, addrB, 80); err != nil {
						t.Error(err)
						return
					}
					conns = append(conns, ConnOf(s))
					_, _ = client.SendStream(p, s, []byte("req"))
					for {
						if data, err := client.RecvStream(p, s, 1024); err != nil || data == nil {
							break
						}
					}
					client.CloseTCP(p, s)
					done++
				}
			})
			for done < n && eng.Now() < 100*sim.Second {
				eng.RunFor(sim.Millisecond)
			}
			if done != n {
				t.Fatalf("%d of %d exchanges completed", done, n)
			}
			eng.RunFor(sim.Millisecond) // the last exchange finishes; TIME_WAITs remain
			if len(server.Sockets()) == len(pre[0].socks) {
				t.Fatal("no server connection is left in TIME_WAIT: nothing to release")
			}
			before := server.Stats()
			eng.RunFor(100 * sim.Millisecond) // every TIME_WAIT expires
			after := server.Stats()

			for i, h := range hosts {
				if got := h.Sockets(); !slices.Equal(got, pre[i].socks) {
					t.Errorf("%s holds %d sockets after the churn, want its %d from before", h.Name, len(got), len(pre[i].socks))
				}
				if got := h.K.Procs(); !slices.Equal(got, pre[i].procs) {
					t.Errorf("%s lists %d processes after the churn, want its %d from before", h.Name, len(got), len(pre[i].procs))
				}
				if got, want := h.Stats().Channels, pre[i].stats.Channels; got != want {
					t.Errorf("%s has %d NI channels after the churn, want %d", h.Name, got, want)
				}
			}
			if len(conns) != 2*n {
				t.Errorf("collected %d connections, want %d", len(conns), 2*n)
			}
			open, armed := 0, 0
			for _, c := range conns {
				if c.State != tcp.Closed {
					open++
				}
				ct := c.Timers.(*connTimers)
				for tm := tcp.Timer(0); tm < tcp.NumTimers; tm++ {
					if ct.ev[tm].Active() {
						armed++
					}
				}
			}
			if open != 0 || armed != 0 {
				t.Errorf("after the churn %d connections are not closed and %d timers are armed, want none", open, armed)
			}
			if lateArms != 0 {
				t.Errorf("%d timers were armed on closed connections", lateArms)
			}
			// Channels is a gauge and falls as TIME_WAIT connections give
			// theirs up; nothing else may move.
			before.Channels, after.Channels = 0, 0
			if after != before {
				t.Errorf("releasing the TIME_WAIT sockets changed Stats():\nbefore %+v\nafter  %+v", before, after)
			}
		})
	}
}

// requireNoDecrease reports every Stats counter that fell between two
// snapshots. (Channels, a gauge, may fall.)
func requireNoDecrease(t *testing.T, before, after Stats) {
	t.Helper()
	b, a := reflect.ValueOf(before), reflect.ValueOf(after)
	for i := 0; i < b.NumField(); i++ {
		if b.Field(i).Kind() == reflect.Uint64 && a.Field(i).Uint() < b.Field(i).Uint() {
			t.Errorf("%s fell from %d to %d", b.Type().Field(i).Name, b.Field(i).Uint(), a.Field(i).Uint())
		}
	}
}

// TestDropTotalsSurviveClose floods a listener with SYNs and an unread
// UDP port with datagrams, one in ten with a bad checksum, then closes
// both: the drops their queues and channels counted stay in Stats().
func TestDropTotalsSurviveClose(t *testing.T) {
	forEachArch(t, func(t *testing.T, r *rig) {
		l := r.server.NewTCPSocket(nil)
		if err := r.server.BindTCP(l, 99); err != nil {
			t.Fatal(err)
		}
		if err := r.server.Listen(nil, l, 4); err != nil {
			t.Fatal(err)
		}
		u := r.server.NewUDPSocket(nil)
		if err := r.server.BindUDP(u, 7); err != nil {
			t.Fatal(err)
		}
		n := 0
		var flood func()
		flood = func() {
			if n >= 2000 {
				return
			}
			n++
			syn := pkt.TCPHeader{SrcPort: uint16(1000 + n), DstPort: 99, Seq: uint32(n), Flags: pkt.TCPSyn, Window: 8192, MSS: 1460}
			r.nw.Inject(pkt.TCPSegment(addrA, addrB, &syn, uint16(n), 64, nil))
			b := pkt.UDPPacket(addrA, addrB, 9, 7, uint16(n), 64, []byte("x"), true)
			if n%10 == 0 {
				pkt.CorruptInPlace(b) // a bad checksum: a protocol drop
			}
			r.nw.Inject(b)
			r.eng.After(100, flood)
		}
		r.eng.At(0, flood)
		r.eng.RunFor(sim.Second)
		before := r.server.Stats()
		if before.ChannelDrops+before.DisabledDrops+before.SockQDrops+before.EarlyDrops == 0 {
			t.Fatalf("the flood overflowed no queue: %+v", before)
		}
		r.server.CloseTCP(nil, l)
		r.server.CloseUDP(nil, u)
		requireNoDecrease(t, before, r.server.Stats())
		if socks := r.server.Sockets(); slices.Contains(socks, l) || slices.Contains(socks, u) {
			t.Error("the closed sockets are still listed")
		}
	})
}

// TestTimeWaitChannelCountedOnce: NI-LRP moves a connection in TIME_WAIT
// onto the host's shared TIME_WAIT channel. Stats() counts that channel's
// drops once, not once more for every socket pointing at it.
func TestTimeWaitChannelCountedOnce(t *testing.T) {
	r := newRig(t, ArchNILRP)
	const conns = 3
	r.server.K.Spawn("srv", 0, func(p *kernel.Proc) {
		l := r.server.NewTCPSocket(p)
		_ = r.server.BindTCP(l, 80)
		_ = r.server.Listen(p, l, 5)
		for i := 0; i < conns; i++ {
			cs, err := r.server.Accept(p, l)
			if err != nil {
				return
			}
			r.server.CloseTCP(p, cs) // the server closes first: TIME_WAIT
		}
	})
	r.client.K.Spawn("cli", 0, func(p *kernel.Proc) {
		for i := 0; i < conns; i++ {
			s := r.client.NewTCPSocket(p)
			if err := r.client.ConnectTCP(p, s, addrB, 80); err != nil {
				t.Error(err)
				return
			}
			for {
				if data, err := r.client.RecvStream(p, s, 100); err != nil || data == nil {
					break
				}
			}
			r.client.CloseTCP(p, s)
		}
	})
	r.eng.RunFor(sim.Second)
	tw := r.server.twChan
	onTW := 0
	for _, s := range r.server.Sockets() {
		if s.NIChan == tw {
			onTW++
		}
	}
	if onTW != conns {
		t.Fatalf("%d sockets on the TIME_WAIT channel, want %d", onTW, conns)
	}
	before, twBefore := r.server.Stats().ChannelDrops, tw.Queue.Drops()
	for i := 0; i <= r.server.CM.ChannelLimit; i++ { // one more than fits
		tw.Deliver(r.server.Pool.Alloc(nil))
	}
	tw.Queue.Flush()
	want := tw.Queue.Drops() - twBefore
	if want == 0 {
		t.Fatal("the TIME_WAIT channel did not overflow")
	}
	if got := r.server.Stats().ChannelDrops - before; got != want {
		t.Errorf("the TIME_WAIT channel dropped %d packets, but Stats().ChannelDrops rose by %d", want, got)
	}
}
