package tcp

// Robustness: a connection fed arbitrary garbage segments must never
// panic and must keep its internal invariants.

import (
	"testing"
	"testing/quick"

	"lrp/internal/pkt"
	"lrp/internal/sim"
)

// checkInvariants asserts internal sequence-space sanity.
func checkInvariants(t *testing.T, c *Conn) {
	t.Helper()
	if seqGT(c.sndUna, c.sndNxt) {
		t.Fatalf("sndUna %d beyond sndNxt %d", c.sndUna, c.sndNxt)
	}
	if c.cwnd < 1 {
		t.Fatalf("cwnd %d", c.cwnd)
	}
	if c.RcvBuf.Len() > c.RcvBuf.Limit && c.RcvBuf.Limit > 0 {
		t.Fatalf("rcvbuf %d over limit %d", c.RcvBuf.Len(), c.RcvBuf.Limit)
	}
}

// TestRandomSegmentsNoPanic feeds random headers/payloads into
// connections in various states.
func TestRandomSegmentsNoPanic(t *testing.T) {
	f := func(seed uint64, nSegs uint8) bool {
		rng := sim.NewRand(seed)
		n := newTestNet(t)
		cl, sv := dial(t, n)
		l := n.newConn(hostB, 81, pkt.Addr{}, 0)
		l.ListenOn(3)
		targets := []*Conn{cl, sv, l}
		for i := 0; i < int(nSegs); i++ {
			c := targets[rng.Int63n(int64(len(targets)))]
			h := pkt.TCPHeader{
				SrcPort: uint16(rng.Int63n(65536)),
				DstPort: c.LPort,
				Seq:     uint32(rng.Uint64()),
				Ack:     uint32(rng.Uint64()),
				Flags:   byte(rng.Int63n(64)),
				Window:  uint16(rng.Int63n(65536)),
			}
			payload := make([]byte, rng.Int63n(64))
			c.Input(hostA, &h, payload)
			checkInvariants(t, cl)
			checkInvariants(t, sv)
			n.eng.RunFor(rng.Int63n(5000))
		}
		// The engine must drain cleanly afterwards.
		n.eng.RunFor(10 * sim.Second)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestRandomSegmentsAroundValidWindow biases sequence numbers near the
// valid window, where off-by-one bugs live.
func TestRandomSegmentsAroundValidWindow(t *testing.T) {
	f := func(seed uint64, nSegs uint8) bool {
		rng := sim.NewRand(seed)
		n := newTestNet(t)
		cl, sv := dial(t, n)
		for i := 0; i < int(nSegs); i++ {
			base := sv.rcvNxt
			h := pkt.TCPHeader{
				SrcPort: cl.LPort,
				DstPort: sv.LPort,
				Seq:     base + uint32(rng.Int63n(64)) - 32,
				Ack:     sv.sndUna + uint32(rng.Int63n(64)) - 32,
				Flags:   pkt.TCPAck | byte(rng.Int63n(2))*pkt.TCPPsh,
				Window:  uint16(rng.Int63n(65536)),
			}
			payload := make([]byte, rng.Int63n(48))
			for j := range payload {
				payload[j] = byte(rng.Uint64())
			}
			sv.Input(hostA, &h, payload)
			checkInvariants(t, sv)
			n.eng.RunFor(rng.Int63n(2000))
		}
		// The connection must still carry correctly-framed data end to end
		// if it survived in the Established state.
		if cl.State == Established && sv.State == Established {
			sv.RcvBuf.Discard(sv.RcvBuf.Len()) // clear garbage
			cl.Write([]byte("probe"))
			n.eng.RunFor(5 * sim.Second)
		}
		n.eng.RunFor(5 * sim.Second)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
