package tcp

// Tests for Nagle's algorithm and delayed acknowledgments.

import (
	"bytes"
	"testing"

	"lrp/internal/pkt"
	"lrp/internal/sim"
)

// countDataSegments wraps the wire to count data-bearing segments.
func countDataSegments(n *testNet) (*int, *int) {
	dataSegs := new(int)
	acks := new(int)
	inner := n.hooks.Output
	n.hooks.Output = func(c *Conn, b []byte) {
		ih, hlen, err := pkt.DecodeIPv4(b)
		if err == nil {
			th, off, err2 := pkt.DecodeTCP(b[hlen:int(ih.TotalLen)], ih.Src, ih.Dst)
			if err2 == nil {
				payload := int(ih.TotalLen) - hlen - off
				if payload > 0 {
					*dataSegs++
				} else if th.Flags == pkt.TCPAck {
					*acks++
				}
			}
		}
		inner(c, b)
	}
	return dataSegs, acks
}

func TestNagleCoalescesSmallWrites(t *testing.T) {
	n := newTestNet(t)
	cl, sv := dial(t, n)
	cl.MSS = 1024
	dataSegs, _ := countDataSegments(n)
	// 20 small writes in quick succession: the first goes out alone, the
	// rest coalesce while it is unacknowledged.
	for i := 0; i < 20; i++ {
		cl.Write(bytes.Repeat([]byte{byte(i)}, 10))
	}
	n.eng.RunFor(sim.Second)
	if got := sv.Read(1000); len(got) != 200 {
		t.Fatalf("received %d bytes", len(got))
	}
	if *dataSegs > 6 {
		t.Fatalf("%d data segments for 20 tinygrams; Nagle not coalescing", *dataSegs)
	}
}

func TestNoDelaySendsEachWrite(t *testing.T) {
	n := newTestNet(t)
	cl, sv := dial(t, n)
	cl.MSS = 1024
	cl.NoDelay = true
	cl.cwnd = 64 * 1024
	dataSegs, _ := countDataSegments(n)
	for i := 0; i < 10; i++ {
		cl.Write([]byte("tiny"))
	}
	n.eng.RunFor(sim.Second)
	if got := sv.Read(1000); len(got) != 40 {
		t.Fatalf("received %d bytes", len(got))
	}
	if *dataSegs < 8 {
		t.Fatalf("only %d data segments with NoDelay; writes were coalesced", *dataSegs)
	}
}

func TestDelayedAckHalvesAckTraffic(t *testing.T) {
	n := newTestNet(t)
	cl, sv := dial(t, n)
	cl.MSS = 1024
	_, acks := countDataSegments(n)
	pump(t, n, cl, sv, 64*1024)
	withDelack := *acks

	n2 := newTestNet(t)
	cl2, sv2 := dial(t, n2)
	cl2.MSS = 1024
	sv2.AckEveryAck = true
	_, acks2 := countDataSegments(n2)
	pump(t, n2, cl2, sv2, 64*1024)
	without := *acks2

	if withDelack*15/10 > without {
		t.Fatalf("delayed ACKs did not reduce ACK traffic: %d vs %d", withDelack, without)
	}
}

func TestDelackTimerFiresForLoneSegment(t *testing.T) {
	n := newTestNet(t)
	cl, sv := dial(t, n)
	_ = sv
	cl.Write([]byte("lone"))
	// The single segment's ACK arrives only after the delack interval.
	n.eng.RunFor(50 * 1000) // < 100ms delack
	if cl.sndUna == cl.sndNxt {
		t.Fatal("ACK arrived before the delack timer")
	}
	n.eng.RunFor(200 * 1000)
	if cl.sndUna != cl.sndNxt {
		t.Fatal("delack timer never acknowledged the segment")
	}
}

func TestFinAckedImmediately(t *testing.T) {
	n := newTestNet(t)
	cl, sv := dial(t, n)
	_ = sv
	cl.Close()
	n.eng.RunFor(10 * 1000) // well under the delack interval
	if cl.State != FinWait2 {
		t.Fatalf("FIN not acknowledged promptly: client in %v", cl.State)
	}
}

func TestNagleFlushesWhenFlightDrains(t *testing.T) {
	n := newTestNet(t)
	cl, sv := dial(t, n)
	cl.MSS = 4096
	cl.Write(bytes.Repeat([]byte{1}, 100)) // goes out immediately (no flight)
	cl.Write(bytes.Repeat([]byte{2}, 100)) // held by Nagle
	n.eng.RunFor(5 * 1000)
	if got, _ := sv.Readable(); got != 100 {
		t.Fatalf("receiver has %d bytes; second tinygram should be held", got)
	}
	// Once the first segment is acknowledged, the held data flushes.
	n.eng.RunFor(sim.Second)
	sv.Read(1000)
	n.eng.RunFor(sim.Second)
	if sv.RcvBuf.Base < 200 {
		t.Fatalf("held data never flushed: %d bytes total", sv.RcvBuf.Base)
	}
}

// TestResetStopsDelayedAck resets a connection while its delayed ACK is
// pending: once closed it holds no armed timer and sends nothing.
func TestResetStopsDelayedAck(t *testing.T) {
	n := newTestNet(t)
	cl, sv := dial(t, n)
	cl.Write([]byte("lone"))
	n.eng.RunFor(10 * 1000) // < 100ms delack
	if !sv.delackPending {
		t.Fatal("no delayed ACK pending")
	}
	cl.Abort()
	n.eng.RunFor(10 * 1000)
	if sv.State != Closed {
		t.Fatalf("server state %v after RST", sv.State)
	}
	sent := 0
	output := n.hooks.Output
	n.hooks.Output = func(c *Conn, b []byte) {
		if c == sv {
			sent++
		}
		output(c, b)
	}
	if armed := len(n.timers[sv]); armed != 0 {
		t.Errorf("the closed connection holds %d armed timers", armed)
	}
	n.eng.RunFor(sim.Second)
	if sent != 0 {
		t.Errorf("the closed connection sent %d segments", sent)
	}
}
