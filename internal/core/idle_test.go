package core

// Tests for the idle-time protocol processing thread's candidate list
// (which sockets a pass visits, and in which order).

import (
	"fmt"
	"slices"
	"testing"

	"lrp/internal/kernel"
	"lrp/internal/netsim"
	"lrp/internal/pkt"
	"lrp/internal/sim"
	"lrp/internal/socket"
)

func TestIdleThreadVisitsUDPSocketsInCreationOrder(t *testing.T) {
	eng := sim.NewEngine()
	nw := netsim.New(eng)
	h := NewHost(eng, nw, Config{Name: "server", Addr: addrB, Arch: ArchSoftLRP})
	defer h.Shutdown()
	h.EnableForwarding(0)

	// The owner never enters a receive call: only the idle thread moves
	// its datagrams from the NI channels to the socket queues.
	owner := h.K.Spawn("owner", 0, func(p *kernel.Proc) { p.Delay(sim.Second) })
	// A busy process holds the CPU while the packets arrive, so the idle
	// thread finds every channel loaded when its next pass starts.
	h.K.Spawn("busy", 0, func(p *kernel.Proc) {
		p.Delay(1000)
		p.Compute(2000)
	})

	deadTCP := func(n int) {
		for i := 0; i < n; i++ {
			h.AbortTCP(nil, h.NewTCPSocket(owner))
		}
	}
	udp := func(port uint16) *socket.Socket {
		s := h.NewUDPSocket(owner)
		if err := h.BindUDP(s, port); err != nil {
			t.Fatal(err)
		}
		return s
	}
	udpPacket := func(dst pkt.Addr, port uint16) []byte {
		return pkt.UDPPacket(addrA, dst, 9, port, 1, 64, []byte("x"), true)
	}

	deadTCP(100)
	u0 := udp(7000)
	deadTCP(100)
	u1 := udp(7001) // closed before the pass, its packet still queued
	deadTCP(100)
	member := h.NewUDPSocket(owner)
	if err := h.JoinGroup(nil, member, groupAddr, 5353); err != nil {
		t.Fatal(err)
	}
	gsock := h.mcastMember[member].gsock
	u2 := udp(7002) // closed mid-pass, before the scan reaches it
	deadTCP(100)
	u3 := udp(7003)

	if h.icmpSock == nil || h.icmpSock.NIChan == nil || h.fwdSock == nil || h.fwdSock.NIChan == nil {
		t.Fatal("the ICMP and forwarding pseudo-sockets should hold NI channels")
	}

	// Arrivals in reverse creation order: the service order must come
	// from the candidate list, not from the wire.
	eng.At(1500, func() {
		for _, b := range [][]byte{
			udpPacket(addrB, 7003), udpPacket(addrB, 7002), udpPacket(addrB, 7001),
			udpPacket(groupAddr, 5353), udpPacket(addrB, 7000),
		} {
			nw.Inject(b)
		}
	})
	eng.At(2000, func() {
		for _, s := range []*socket.Socket{u0, u1, u2, u3, gsock} {
			if s.NIChan.Queue.Len() != 1 || s.RecvDgrams.Len() != 0 {
				t.Fatalf("port %d: %d raw, %d processed before the idle pass; want 1, 0",
					s.LPort, s.NIChan.Queue.Len(), s.RecvDgrams.Len())
			}
		}
		h.CloseUDP(nil, u1)
	})

	type watched struct {
		name   string
		s      *socket.Socket
		served bool
	}
	watch := []*watched{{"u0", u0, false}, {"u1", u1, false}, {"member", member, false}, {"u2", u2, false}, {"u3", u3, false}}
	var (
		order    []string
		u5       *socket.Socket
		u2Listed bool // u2 still a candidate when u5's packet was taken
	)
	served := func(w *watched) {
		w.served = true
		order = append(order, w.name)
		switch w.name {
		case "u0":
			// Mid-pass: the scan has moved on to the group socket. Close
			// a later socket and create a new one with a packet already
			// waiting on its channel.
			h.CloseUDP(nil, u2)
			u5 = udp(7005)
			watch = append(watch, &watched{"u5", u5, false})
			if _, ok := u5.NIChan.Deliver(h.Pool.Alloc(udpPacket(addrB, 7005))); !ok {
				t.Fatal("channel refused the u5 packet")
			}
		}
	}
	u5Taken := false
	for eng.Now() < 50*sim.Millisecond && eng.Step() {
		for i := 0; i < len(watch); i++ {
			if w := watch[i]; !w.served && w.s.RecvDgrams.Len() > 0 {
				served(w)
			}
		}
		if u5 != nil && !u5Taken && u5.NIChan.Queue.Len() == 0 {
			// The idle thread dequeued u5's packet. Pruning runs only at
			// the start of a pass, so u2 is gone iff a new pass began.
			u5Taken = true
			u2Listed = slices.Contains(h.idleSocks, u2)
		}
	}

	want := []string{"u0", "member", "u3", "u5"}
	if !slices.Equal(order, want) {
		t.Fatalf("idle thread served %v, want %v", order, want)
	}
	if u2Listed {
		t.Error("u5 was served in the pass it was created in: the closed u2 was still a candidate")
	}
	// The candidate list holds the live UDP sockets only: no TCP socket,
	// no closed socket, no ICMP or forwarding pseudo-socket.
	wantList := []*socket.Socket{u0, member, gsock, u3, u5}
	if !slices.Equal(h.idleSocks, wantList) {
		t.Errorf("idle candidates = %d sockets, want %d (u0, member, group, u3, u5)", len(h.idleSocks), len(wantList))
	}
	// The 400 aborted TCP sockets, u1 and u2 were released at their final
	// close: the host lists only its live sockets, in creation order.
	wantSocks := []*socket.Socket{h.icmpSock, h.fwdSock, u0, member, gsock, u3, u5}
	if got := h.Sockets(); !slices.Equal(got, wantSocks) {
		t.Errorf("host lists %d sockets, want the %d live ones (ICMP, forwarding, u0, member, group, u3, u5)", len(got), len(wantSocks))
	}
}

func TestIdleCandidatesNeedIdleThread(t *testing.T) {
	for _, cfg := range []Config{
		{Arch: ArchSoftLRP, NoIdleThread: true},
		{Arch: ArchBSD},
		{Arch: ArchEarlyDemux},
		{Arch: ArchPolling},
	} {
		eng := sim.NewEngine()
		cfg.Name, cfg.Addr = "server", addrB
		h := NewHost(eng, netsim.New(eng), cfg)
		for i := 0; i < 10; i++ {
			s := h.NewUDPSocket(nil)
			_ = h.BindUDP(s, uint16(7000+i))
			h.CloseUDP(nil, s)
		}
		if err := h.JoinGroup(nil, h.NewUDPSocket(nil), groupAddr, 5353); err != nil {
			t.Fatal(err)
		}
		if len(h.idleSocks) != 0 {
			t.Errorf("%v (idle thread off): %d idle candidates, want none", cfg.Arch, len(h.idleSocks))
		}
		h.Shutdown()
	}
}

// BenchmarkIdlePass times one empty idle-thread pass — one poll interval
// of simulated time — on a SOFT-LRP host with one bound UDP socket, with
// and without 10 000 open TCP sockets. The two must cost about the same:
// a pass visits the UDP candidates, not every socket the host holds.
func BenchmarkIdlePass(b *testing.B) {
	for _, open := range []int{0, 10000} {
		b.Run(fmt.Sprintf("tcp=%d", open), func(b *testing.B) {
			eng := sim.NewEngine()
			h := NewHost(eng, netsim.New(eng), Config{Name: "server", Addr: addrB, Arch: ArchSoftLRP})
			defer h.Shutdown()
			for i := 0; i < open; i++ {
				h.NewTCPSocket(nil)
			}
			if err := h.BindUDP(h.NewUDPSocket(nil), 7); err != nil {
				b.Fatal(err)
			}
			eng.RunFor(sim.Millisecond)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.RunFor(idlePollInterval)
			}
		})
	}
}
