package app

import (
	"fmt"
	"testing"

	"lrp/internal/core"
	"lrp/internal/fault"
	"lrp/internal/netsim"
	"lrp/internal/pkt"
	"lrp/internal/sim"
)

var (
	addrA = pkt.IP(10, 0, 0, 1)
	addrB = pkt.IP(10, 0, 0, 2)
)

type rig struct {
	eng    *sim.Engine
	nw     *netsim.Network
	client *core.Host
	server *core.Host
}

func newRig(t *testing.T, arch core.Arch) *rig {
	t.Helper()
	eng := sim.NewEngine()
	nw := netsim.New(eng)
	client := core.NewHost(eng, nw, core.Config{Name: "client", Addr: addrA, Arch: arch})
	server := core.NewHost(eng, nw, core.Config{Name: "server", Addr: addrB, Arch: arch})
	t.Cleanup(func() { client.Shutdown(); server.Shutdown() })
	return &rig{eng: eng, nw: nw, client: client, server: server}
}

func TestBlastSourceRate(t *testing.T) {
	eng := sim.NewEngine()
	nw := netsim.New(eng)
	src := &BlastSource{
		Net: nw, Src: addrA, Dst: addrB, SPort: 1, DPort: 2,
		Size: 14, Rate: 5000, Rng: sim.NewRand(3),
	}
	src.Start()
	eng.RunFor(2 * sim.Second)
	sent := src.Sent.Total()
	if sent < 9000 || sent > 11000 {
		t.Fatalf("sent %d packets in 2s at 5000/s", sent)
	}
	src.Stop()
	before := src.Sent.Total()
	eng.RunFor(sim.Second)
	if src.Sent.Total() != before {
		t.Fatal("source kept sending after Stop")
	}
}

func TestBlastSourcePoissonRate(t *testing.T) {
	eng := sim.NewEngine()
	nw := netsim.New(eng)
	src := &BlastSource{
		Net: nw, Src: addrA, Dst: addrB, SPort: 1, DPort: 2,
		Size: 14, Rate: 8000, Poisson: true, Rng: sim.NewRand(9),
	}
	src.Start()
	eng.RunFor(2 * sim.Second)
	sent := src.Sent.Total()
	if sent < 14000 || sent > 18000 {
		t.Fatalf("Poisson source sent %d in 2s at 8000/s", sent)
	}
}

func TestBlastSinkReceives(t *testing.T) {
	r := newRig(t, core.ArchSoftLRP)
	sink := &BlastSink{Host: r.server, Port: 7}
	sink.Start()
	src := &BlastSource{
		Net: r.nw, Src: addrA, Dst: addrB, SPort: 1, DPort: 7,
		Size: 14, Rate: 2000, Rng: sim.NewRand(5),
	}
	src.Start()
	r.eng.RunFor(sim.Second)
	got, sent := sink.Received.Total(), src.Sent.Total()
	if got == 0 || got < sent*95/100 {
		t.Fatalf("sink received %d of %d", got, sent)
	}
}

func TestPingPongMeasuresRTT(t *testing.T) {
	r := newRig(t, core.ArchBSD)
	srv := &PingPongServer{Host: r.server, Port: 7}
	srv.Start()
	cli := &PingPongClient{
		Host: r.client, ServerAddr: addrB, ServerPort: 7,
		Iterations: 50,
	}
	cli.Start()
	r.eng.RunFor(5 * sim.Second)
	if !cli.Done {
		t.Fatal("client did not finish")
	}
	if cli.RTT.Count() != 50 || cli.Lost != 0 {
		t.Fatalf("rtt samples %d, lost %d", cli.RTT.Count(), cli.Lost)
	}
	if cli.RTT.Mean() <= 0 {
		t.Fatal("non-positive RTT")
	}
}

func TestPingPongWarmupDiscards(t *testing.T) {
	r := newRig(t, core.ArchBSD)
	srv := &PingPongServer{Host: r.server, Port: 7}
	srv.Start()
	cli := &PingPongClient{
		Host: r.client, ServerAddr: addrB, ServerPort: 7,
		Iterations: 30, Warmup: 20,
	}
	cli.Start()
	r.eng.RunFor(5 * sim.Second)
	if cli.RTT.Count() != 30 {
		t.Fatalf("samples = %d, want 30 (warmup discarded)", cli.RTT.Count())
	}
}

func TestPingPongCountsLosses(t *testing.T) {
	// No server: every probe times out.
	r := newRig(t, core.ArchBSD)
	cli := &PingPongClient{
		Host: r.client, ServerAddr: addrB, ServerPort: 7,
		Iterations: 5, ReplyTimeout: 10 * sim.Millisecond,
	}
	cli.Start()
	r.eng.RunFor(sim.Second)
	if cli.Lost != 5 {
		t.Fatalf("lost = %d, want 5", cli.Lost)
	}
}

func TestUDPWindowTransfer(t *testing.T) {
	r := newRig(t, core.ArchNILRP)
	rx := &UDPWindowReceiver{Host: r.server, Port: 9000}
	rx.Start()
	tx := &UDPWindowSender{
		Host: r.client, PeerAddr: addrB, PeerPort: 9000,
		Size: 8192, Window: 8, TotalBytes: 1 << 20,
	}
	tx.Start()
	r.eng.RunFor(10 * sim.Second)
	if !tx.Finished {
		t.Fatalf("transfer incomplete: %d bytes at receiver", rx.Bytes.Total())
	}
	if rx.Bytes.Total() < 1<<20 {
		t.Fatalf("receiver got %d bytes", rx.Bytes.Total())
	}
}

func TestTCPTransferApp(t *testing.T) {
	r := newRig(t, core.ArchSoftLRP)
	x := &TCPTransfer{
		Server: r.server, Client: r.client, ServerAddr: addrB,
		Port: 5001, TotalBytes: 1 << 20,
	}
	x.Start()
	r.eng.RunFor(30 * sim.Second)
	if !x.Done || x.Received != 1<<20 {
		t.Fatalf("done=%v received=%d", x.Done, x.Received)
	}
	if x.ThroughputMbps() <= 0 {
		t.Fatal("no throughput computed")
	}
}

func TestRPCRoundTrips(t *testing.T) {
	r := newRig(t, core.ArchSoftLRP)
	srv := &RPCServer{Host: r.server, Port: 1001, PerCallCompute: 100}
	srv.Start()
	cli := &RPCClient{
		Host: r.client, ServerAddr: addrB, ServerPort: 1001,
		Outstanding: 2, Rng: sim.NewRand(4),
	}
	cli.Start()
	r.eng.RunFor(sim.Second)
	if cli.Completed.Total() == 0 {
		t.Fatal("no RPCs completed")
	}
	if cli.RTT.Count() == 0 || cli.RTT.Mean() < 100 {
		t.Fatalf("rtt %v", cli.RTT.Mean())
	}
	if srv.Served.Total() < cli.Completed.Total() {
		t.Fatalf("server served %d < client completed %d", srv.Served.Total(), cli.Completed.Total())
	}
}

func TestWorkerServerLifecycle(t *testing.T) {
	r := newRig(t, core.ArchBSD)
	w := &WorkerServer{Host: r.server, Port: 1000, ComputeTime: 100 * sim.Millisecond}
	w.Start()
	wc := &RPCClient{Host: r.client, ServerAddr: addrB, ServerPort: 1000, Outstanding: 1, Rng: sim.NewRand(2)}
	wc.Start()
	r.eng.RunFor(2 * sim.Second)
	if !w.Done {
		t.Fatal("worker did not complete")
	}
	el := w.Elapsed()
	if el < 100*sim.Millisecond || el > 500*sim.Millisecond {
		t.Fatalf("elapsed %d for 100ms of CPU on an idle host", el)
	}
	if s := w.CPUShare(); s < 0.5 {
		t.Fatalf("share %v on an idle host", s)
	}
}

func TestHTTPServerAndClients(t *testing.T) {
	for _, arch := range []core.Arch{core.ArchBSD, core.ArchSoftLRP} {
		arch := arch
		t.Run(arch.String(), func(t *testing.T) {
			r := newRig(t, arch)
			hs := &HTTPServer{Host: r.server, Port: 80, DocSize: 1300}
			hs.Start()
			var clients []*HTTPClient
			for i := 0; i < 3; i++ {
				c := &HTTPClient{
					Host: r.client, ServerAddr: addrB, ServerPort: 80,
					Name: fmt.Sprintf("c%d", i),
				}
				c.Start()
				clients = append(clients, c)
			}
			r.eng.RunFor(2 * sim.Second)
			var done, failed uint64
			for _, c := range clients {
				done += c.Completed.Total()
				failed += c.Failures.Total()
			}
			if done < 100 {
				t.Fatalf("only %d transfers in 2s", done)
			}
			if failed > done/50 {
				t.Fatalf("%d failures vs %d successes on a clean network", failed, done)
			}
			if hs.Served.Total() == 0 {
				t.Fatal("server counted no requests")
			}
		})
	}
}

func TestSYNFloodUniqueSources(t *testing.T) {
	r := newRig(t, core.ArchSoftLRP)
	StartDummyServer(r.server, 99, 5)
	f := &SYNFlood{Net: r.nw, Src: addrA, Dst: addrB, DPort: 99, Rate: 5000, Rng: sim.NewRand(8)}
	f.Start()
	r.eng.RunFor(sim.Second)
	if f.Sent.Total() < 4000 {
		t.Fatalf("flood sent only %d", f.Sent.Total())
	}
	f.Stop()
	st := r.server.Stats()
	// Backlog 5 accepted as embryonic, the rest discarded at the disabled
	// channel (plus a handful that raced the disable).
	if st.DisabledDrops < f.Sent.Total()*8/10 {
		t.Fatalf("only %d of %d SYNs discarded at the channel", st.DisabledDrops, f.Sent.Total())
	}
}

func TestSpinnerConsumesIdleCPU(t *testing.T) {
	// Priority behaviour of nice +20 is covered by kernel tests; here just
	// check the spinner actually occupies the otherwise-idle CPU.
	r := newRig(t, core.ArchBSD)
	sp := Spinner(r.server, "spin")
	r.eng.RunFor(100 * sim.Millisecond)
	if sp.UTime < 90*sim.Millisecond {
		t.Fatalf("spinner consumed only %dµs of an idle CPU", sp.UTime)
	}
}

func TestMediaSourceAndPlayer(t *testing.T) {
	r := newRig(t, core.ArchSoftLRP)
	player := &MediaPlayer{Host: r.server, Port: 5004, PerFrameCompute: 200}
	player.Start()
	src := &MediaSource{
		Net: r.nw, Src: addrA, Dst: addrB, SPort: 5004, DPort: 5004,
	}
	src.Start()
	r.eng.RunFor(2 * sim.Second)
	src.Stop()
	frames := player.Frames.Total()
	// 30 fps for 2s = ~60 frames.
	if frames < 55 || frames > 61 {
		t.Fatalf("player saw %d frames in 2s", frames)
	}
	// Idle host: jitter should be negligible.
	if player.Jitter.Mean() > 20 {
		t.Fatalf("idle-host jitter %v", player.Jitter.Mean())
	}
	before := src.Sent.Total()
	r.eng.RunFor(sim.Second)
	if src.Sent.Total() != before {
		t.Fatal("source kept sending after Stop")
	}
}

func TestUDPWindowRetransmitsOnAckLoss(t *testing.T) {
	// Force timeouts by losing half the traffic; the window protocol must
	// still complete (go-back-N).
	r := newRig(t, core.ArchBSD)
	r.nw.SetFaults(fault.MustNew(fault.LossPlan(5, 0.2)))
	rx := &UDPWindowReceiver{Host: r.server, Port: 9000}
	rx.Start()
	tx := &UDPWindowSender{
		Host: r.client, PeerAddr: addrB, PeerPort: 9000,
		Size: 4096, Window: 4, TotalBytes: 128 * 1024,
	}
	tx.Start()
	r.eng.RunFor(60 * sim.Second)
	if !tx.Finished {
		t.Fatalf("lossy window transfer incomplete: receiver has %d bytes", rx.Bytes.Total())
	}
}
