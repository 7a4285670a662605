package core

import (
	"testing"

	"lrp/internal/ipv4"
	"lrp/internal/kernel"
	"lrp/internal/netsim"
	"lrp/internal/pkt"
	"lrp/internal/sim"
	"lrp/internal/socket"
)

// FuzzHostInput hands one frame from the wire to the NIC of a fresh host
// of every architecture, each with a UDP socket drained by a step reader
// and a TCP listener, and runs the world for 50 ms. Whatever the bytes,
// the host must end in a delivery or a counted drop, never a panic.
func FuzzHostInput(f *testing.F) {
	udp := pkt.UDPPacket(addrA, addrB, 9, 7, 1, 64, []byte("hello"), true)
	syn := pkt.AppendTCP(nil, addrA, addrB, &pkt.TCPHeader{SrcPort: 1000, DstPort: 80, Seq: 1, Flags: pkt.TCPSyn, Window: 8192, MSS: 1460}, 2, 64, nil)
	frags := ipv4.Fragment(pkt.UDPPacket(addrA, addrB, 9, 7, 3, 64, make([]byte, 12000), true), ipv4.DefaultMTU)
	badSum := append([]byte(nil), udp...)
	badSum[len(badSum)-1] ^= 0xff // a flipped payload byte fails the UDP checksum
	for _, seed := range [][]byte{
		udp,
		syn,
		echoRequest(addrA, addrB, 4, 1, 56),
		frags[0],            // a datagram's head fragment
		frags[len(frags)-1], // a trailing fragment no mapping covers
		udp[:12],            // a truncated IP header
		badSum,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		for _, arch := range everyArch {
			eng := sim.NewEngine()
			h := NewHost(eng, netsim.New(eng), Config{Name: "server", Addr: addrB, Arch: arch})
			var (
				u  *socket.Socket
				fr RecvFromOp
			)
			reader := h.K.SpawnStep("reader", 0, func(p *kernel.Proc) {
				for {
					if !h.RecvFromStep(p, u, &fr) {
						return
					}
					if fr.Err != nil {
						p.ReqExit()
						return
					}
					fr.D.Release()
					fr.Reset()
				}
			})
			u = h.NewUDPSocket(reader)
			if err := h.BindUDP(u, 7); err != nil {
				t.Fatal(err)
			}
			l := h.NewTCPSocket(reader)
			if err := h.BindTCP(l, 80); err != nil {
				t.Fatal(err)
			}
			if err := h.Listen(nil, l, 4); err != nil {
				t.Fatal(err)
			}
			eng.At(0, func() { h.NIC.Rx(b) })
			eng.RunFor(50 * sim.Millisecond)
			h.Shutdown()
		}
	})
}
