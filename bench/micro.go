package main

// Per-layer micro-benchmarks. Each row drives one layer through its
// public API inside a testing.Benchmark loop and reports ns per op.

import (
	"flag"
	"fmt"
	"slices"
	"testing"

	"lrp/internal/demux"
	"lrp/internal/fault"
	"lrp/internal/ipv4"
	"lrp/internal/kernel"
	"lrp/internal/mbuf"
	"lrp/internal/netsim"
	"lrp/internal/nic"
	"lrp/internal/pkt"
	"lrp/internal/sim"
	"lrp/internal/socket"
	"lrp/internal/tcp"
	"lrp/scenarios"
)

// microBenchtime bounds each row's measuring time, so all rows of a
// traced run take about ten seconds.
const microBenchtime = "100ms"

type microRow struct {
	name string
	fn   func(b *testing.B)
}

var microRows = []microRow{
	{"sim.at_fire_ns", simAtFire},
	{"sim.deep_queue_ns", simDeepQueue},
	{"sim.cancel_ns", simCancel},
	{"sim.lane_post_fire_ns", simLanePostFire},
	{"sim.post_batch8_ns", simPostBatch8},
	{"sim.wheel_cascade_ns", simWheelCascade},
	{"kernel.consume_ns", kernelConsume},
	{"kernel.consume_sys_ns", kernelConsumeSys},
	{"kernel.ctx_switch_ns", kernelCtxSwitch},
	{"kernel.sleep_wakeup_ns", kernelSleepWakeup},
	{"kernel.interrupted_consume_ns", kernelInterruptedConsume},
	{"pkt.append_udp_ns", pktAppendUDP},
	{"pkt.append_tcp1400_ns", pktAppendTCP1400},
	{"pkt.decode_ipv4_ns", pktDecodeIPv4},
	{"pkt.checksum1400_ns", pktChecksum1400},
	{"mbuf.alloc_free_ns", mbufAllocFree},
	{"mbuf.queue_churn_ns", mbufQueueChurn},
	{"nic.rx_dequeue_ns", nicRxDequeue},
	{"netsim.hop_ns", netsimHop},
	{"fault.apply_ns", faultApply},
	{"demux.classify_hot_ns", demuxClassifyHot},
	{"demux.classify_ns.n1e2", demuxClassify(100)},
	{"demux.classify_ns.n1e4", demuxClassify(10_000)},
	{"demux.classify_ns.n1e6", demuxClassify(1_000_000)},
	{"tcp.data_seg_ns", tcpDataSeg},
	{"tcp.handshake_close_ns", tcpHandshakeClose},
	{"socket.dgram_enq_deq_ns", socketDgramEnqDeq},
	{"ipv4.fragment_ns", ipv4Fragment},
	{"ipv4.reassemble4_ns", ipv4Reassemble4},
}

func runMicro(fn func(*testing.B)) float64 {
	testing.Init()
	if err := flag.Set("test.benchtime", microBenchtime); err != nil {
		panic(err)
	}
	r := testing.Benchmark(fn)
	if r.N == 0 {
		panic("bench: micro-benchmark failed")
	}
	return float64(r.T.Nanoseconds()) / float64(r.N)
}

// rxNsPerPkt is the host cost of the whole wire-to-socket path of one
// architecture: RunFor ns per delivered packet of its 1k pkt/s
// udp-overload world, the median of three runs.
func rxNsPerPkt(sys system, seed uint64) float64 {
	v := make([]float64, 3)
	for i := range v {
		r := runWorld(fig3World(sys, 1000, seed), newRecorder())
		if r.err != nil {
			panic(fmt.Sprintf("bench: rx world %s: %v", sys.short, r.err))
		}
		v[i] = float64(r.c.runNs) / float64(r.c.delivered)
	}
	slices.Sort(v)
	return v[1]
}

// Sinks keep results alive so the compiler cannot drop the measured calls.
var (
	sinkBytes   []byte
	sinkMbuf    *mbuf.Mbuf
	sinkSum     uint16
	sinkHeader  pkt.IPv4Header
	sinkVerdict fault.Verdict
	sinkDgram   socket.Datagram
	sinkFrags   [][]byte
)

var payload1400 = make([]byte, 1400)

// --- sim ---

func simAtFire(b *testing.B) {
	e := sim.NewEngine()
	fn := func() {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.At(e.Now(), fn)
		e.Step()
	}
}

func simDeepQueue(b *testing.B) {
	e := sim.NewEngine()
	fn := func() {}
	for j := 0; j < 1024; j++ {
		e.At(sim.Time(1_000_000+j), fn)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.At(e.Now(), fn)
		e.Step()
	}
}

func simCancel(b *testing.B) {
	e := sim.NewEngine()
	fn := func() {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Cancel(e.At(e.Now()+100, fn))
	}
}

func simLanePostFire(b *testing.B) {
	e := sim.NewEngine()
	l := e.NewLane()
	fn := func() {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Post(e.Now(), fn)
		e.Step()
	}
}

// simPostBatch8 times one 8-event PostBatch plus its 8 firings.
func simPostBatch8(b *testing.B) {
	e := sim.NewEngine()
	fn := func() {}
	var batch [8]sim.Post
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := e.Now()
		for j := range batch {
			batch[j] = sim.Post{At: now + sim.Time(j), Fn: fn}
		}
		e.PostBatch(batch[:])
		for range batch {
			e.Step()
		}
	}
}

// simWheelCascade posts every event 2^16+3 µs ahead: with the engine's
// 8-bit wheel tiers it lands in tier 2 and cascades down before firing.
func simWheelCascade(b *testing.B) {
	e := sim.NewEngine()
	fn := func() {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.At(e.Now()+1<<16+3, fn)
		e.Step()
	}
}

// --- kernel: one op is one burst, switch or wakeup of simulated time ---

// runKernel settles k's processes for 1 ms, then times b.N ops of opUs
// simulated µs each.
func runKernel(b *testing.B, eng *sim.Engine, k *kernel.Kernel, opUs int64) {
	eng.RunFor(sim.Millisecond)
	b.ResetTimer()
	eng.RunFor(int64(b.N) * opUs)
	b.StopTimer()
	k.Shutdown()
}

func kernelConsume(b *testing.B) {
	eng := sim.NewEngine()
	k := kernel.New(eng, "bench")
	k.SpawnStep("worker", 0, func(p *kernel.Proc) { p.ReqCompute(10) })
	runKernel(b, eng, k, 10)
}

func kernelConsumeSys(b *testing.B) {
	eng := sim.NewEngine()
	k := kernel.New(eng, "bench")
	owner := k.SpawnStep("owner", 0, func(p *kernel.Proc) { p.ReqCompute(10) })
	k.SpawnStep("proto", 0, func(p *kernel.Proc) { p.ReqComputeSysFor(owner, 10) })
	runKernel(b, eng, k, 10)
}

// kernelCtxSwitch: two equal-priority processes alternately compute 5 µs,
// wake the other and sleep; one op is one handoff.
func kernelCtxSwitch(b *testing.B) {
	eng := sim.NewEngine()
	k := kernel.New(eng, "bench")
	var aq, bq kernel.WaitQ
	pingpong := func(self, other *kernel.WaitQ) kernel.StepFn {
		computed := false
		return func(p *kernel.Proc) {
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
	runKernel(b, eng, k, 5)
}

func kernelSleepWakeup(b *testing.B) {
	eng := sim.NewEngine()
	k := kernel.New(eng, "bench")
	var wq kernel.WaitQ
	k.SpawnStep("sleeper", 0, func(p *kernel.Proc) { p.ReqSleepTimeout(&wq, 10) })
	runKernel(b, eng, k, 10)
}

// kernelInterruptedConsume: a 10 µs burst preempted every 10 µs by 2 µs
// of hardware-interrupt work, the Fig. 3 overload pattern.
func kernelInterruptedConsume(b *testing.B) {
	eng := sim.NewEngine()
	k := kernel.New(eng, "bench")
	k.SpawnStep("worker", 0, func(p *kernel.Proc) { p.ReqCompute(10) })
	var post func()
	post = func() {
		k.PostHW(kernel.WorkItem{Cost: 2})
		eng.After(10, post)
	}
	eng.After(10, post)
	runKernel(b, eng, k, 12)
}

// --- pkt ---

func pktAppendUDP(b *testing.B) {
	buf := make([]byte, 0, 2048)
	for i := 0; i < b.N; i++ {
		buf = pkt.AppendUDP(buf[:0], addrA, addrB, 9, 7, uint16(i), 64, payload1400[:14], true)
	}
	sinkBytes = buf
}

func pktAppendTCP1400(b *testing.B) {
	h := pkt.TCPHeader{SrcPort: 80, DstPort: 4000, Seq: 1, Ack: 2, Flags: pkt.TCPAck, Window: 8192}
	buf := make([]byte, 0, 2048)
	for i := 0; i < b.N; i++ {
		buf = pkt.AppendTCP(buf[:0], addrA, addrB, &h, uint16(i), 64, payload1400)
	}
	sinkBytes = buf
}

func pktDecodeIPv4(b *testing.B) {
	p := pkt.UDPPacket(addrA, addrB, 9, 7, 1, 64, payload1400[:14], true)
	for i := 0; i < b.N; i++ {
		h, _, err := pkt.DecodeIPv4(p)
		if err != nil {
			b.Fatal(err)
		}
		sinkHeader = h
	}
}

func pktChecksum1400(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sinkSum = pkt.Checksum(payload1400)
	}
}

// --- mbuf ---

func mbufAllocFree(b *testing.B) {
	p := mbuf.NewPool(0)
	data := make([]byte, 42)
	for i := 0; i < b.N; i++ {
		sinkMbuf = p.Alloc(data)
		sinkMbuf.Free()
	}
}

func mbufQueueChurn(b *testing.B) {
	p := mbuf.NewPool(0)
	q := mbuf.NewQueue(64)
	data := make([]byte, 42)
	for i := 0; i < b.N; i++ {
		q.Enqueue(p.Alloc(data))
		q.Dequeue().Free()
	}
}

// --- nic, netsim, fault ---

// nicRxDequeue: one frame from the wire into a raw receive ring, the
// interrupt handler's dequeue, the buffer's free and the end of the
// interrupt.
func nicRxDequeue(b *testing.B) {
	eng := sim.NewEngine()
	n := nic.New(eng, nic.Config{Name: "bench", Mode: nic.ModeRaw})
	n.OnHostIntr = func() {}
	frame := pkt.UDPPacket(addrA, addrB, 9000, 7, 1, 64, payload1400[:14], true)
	for i := 0; i < b.N; i++ {
		n.Rx(frame)
		n.RxDequeue().Free()
		n.IntrDone()
	}
}

// netsimHop: one injected frame carried across one link to a raw NIC
// whose interrupt drains and frees it.
func netsimHop(b *testing.B) {
	eng := sim.NewEngine()
	nw := netsim.New(eng)
	src := nic.New(eng, nic.Config{Name: "a", Mode: nic.ModeRaw})
	dst := nic.New(eng, nic.Config{Name: "b", Mode: nic.ModeRaw})
	nw.Attach(src, addrA, 155_000_000, 10)
	nw.Attach(dst, addrB, 155_000_000, 10)
	dst.OnHostIntr = func() {
		for m := dst.RxDequeue(); m != nil; m = dst.RxDequeue() {
			m.Free()
		}
		dst.IntrDone()
	}
	frame := pkt.UDPPacket(addrA, addrB, 9000, 7, 1, 64, payload1400[:14], true)
	for i := 0; i < b.N; i++ {
		nw.InjectFrom(addrA, frame)
		for eng.Step() {
		}
	}
	if got := nw.Stats().Delivered; got != uint64(b.N) {
		b.Fatalf("delivered %d of %d", got, b.N)
	}
}

// faultApply runs the datacenter-incast plan (loss, flap, duplicate) on
// one delivery every 100 µs.
func faultApply(b *testing.B) {
	plan, err := scenarios.Load("datacenter-incast")
	if err != nil {
		b.Fatal(err)
	}
	pl, err := fault.New(plan)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		sinkVerdict = pl.Apply(sim.Time(i) * 100)
	}
}

// --- demux ---

func demuxClassifyHot(b *testing.B) {
	tb := demux.NewTable[*socket.Socket]()
	tb.BindListen(pkt.ProtoUDP, pkt.Addr{}, 7, socket.NewSocket(socket.Dgram, nil))
	p := pkt.UDPPacket(addrA, addrB, 1, 7, 1, 64, payload1400[:14], true)
	for i := 0; i < b.N; i++ {
		if _, v := tb.Classify(p, 0); v != demux.Match {
			b.Fatal(v)
		}
	}
}

// demuxClassify binds n connected UDP flows and classifies packets of
// 4096 flows drawn at random from them in turn, so consecutive packets
// miss the table's one-entry cache. The table is built on first use.
func demuxClassify(n int) func(*testing.B) {
	var tb *demux.Table[*socket.Socket]
	var pkts [][]byte
	return func(b *testing.B) {
		if tb == nil {
			tb, pkts = demuxFlows(n)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, v := tb.Classify(pkts[i%len(pkts)], 0); v != demux.Match {
				b.Fatal(v)
			}
		}
	}
}

func demuxFlows(n int) (*demux.Table[*socket.Socket], [][]byte) {
	tb := demux.NewTable[*socket.Socket]()
	so := socket.NewSocket(socket.Dgram, nil)
	remote := func(i int) (pkt.Addr, uint16) {
		return pkt.IP(11, byte(i>>16), byte(i>>8), byte(i)), uint16(1024 + i%50000)
	}
	for i := 0; i < n; i++ {
		a, port := remote(i)
		tb.BindConnected(pkt.ProtoUDP, addrB, 7, a, port, so)
	}
	rng := sim.NewRand(1)
	pkts := make([][]byte, 4096)
	for i := range pkts {
		a, port := remote(int(rng.Int63n(int64(n))))
		pkts[i] = pkt.UDPPacket(a, addrB, port, 7, 1, 64, payload1400[:14], true)
	}
	return tb, pkts
}

// --- tcp, socket, ipv4 ---

// tcpWire connects tcp.Conns back to back: segments a Conn outputs are
// queued and delivered in order by pump, and timers run on an engine.
type tcpWire struct {
	eng    *sim.Engine
	hooks  tcp.Hooks
	conns  map[tcpKey]*tcp.Conn // connected and listening (zero remote)
	queue  [][]byte
	timers map[*tcp.Conn]*[tcp.NumTimers]sim.Event
	iss    uint32
}

type tcpKey struct {
	local  pkt.Addr
	lport  uint16
	remote pkt.Addr
	rport  uint16
}

const tcpTimeWait = 1000

func newTCPWire() *tcpWire {
	w := &tcpWire{eng: sim.NewEngine(), conns: map[tcpKey]*tcp.Conn{}, timers: map[*tcp.Conn]*[tcp.NumTimers]sim.Event{}}
	w.hooks = tcp.Hooks{
		Now:    w.eng.Now,
		Output: func(_ *tcp.Conn, b []byte) { w.queue = append(w.queue, append([]byte(nil), b...)) },
		ArmTimer: func(c *tcp.Conn, t tcp.Timer, d int64) {
			w.disarm(c, t)
			ts := w.timers[c]
			if ts == nil {
				ts = new([tcp.NumTimers]sim.Event)
				w.timers[c] = ts
			}
			ts[t] = w.eng.After(d, func() {
				ts[t] = sim.Event{}
				c.TimerExpire(t)
			})
		},
		DisarmTimer: w.disarm,
		NewChild: func(l *tcp.Conn, remote pkt.Addr, rport uint16) *tcp.Conn {
			return w.newConn(l.Local, l.LPort, remote, rport)
		},
		Dealloc: func(c *tcp.Conn) {
			delete(w.conns, tcpKey{c.Local, c.LPort, c.Remote, c.RPort})
			delete(w.timers, c)
		},
		TimeWaitDur:   tcpTimeWait,
		MaxSynRetries: 3,
	}
	return w
}

func (w *tcpWire) newConn(local pkt.Addr, lport uint16, remote pkt.Addr, rport uint16) *tcp.Conn {
	w.iss += 64000
	c := tcp.NewConn(&w.hooks, local, lport, remote, rport, w.iss)
	w.conns[tcpKey{local, lport, remote, rport}] = c
	return c
}

func (w *tcpWire) disarm(c *tcp.Conn, t tcp.Timer) {
	if ts := w.timers[c]; ts != nil && !ts[t].IsZero() {
		w.eng.Cancel(ts[t])
		ts[t] = sim.Event{}
	}
}

// pump delivers queued segments, and those they provoke, until the wire
// is idle.
func (w *tcpWire) pump() {
	for i := 0; i < len(w.queue); i++ {
		b := w.queue[i]
		ih, hlen, err := pkt.DecodeIPv4(b)
		if err != nil {
			panic(err)
		}
		seg := b[hlen:ih.TotalLen]
		th, off, err := pkt.DecodeTCP(seg, ih.Src, ih.Dst)
		if err != nil {
			panic(err)
		}
		c := w.conns[tcpKey{ih.Dst, th.DstPort, ih.Src, th.SrcPort}]
		if c == nil {
			c = w.conns[tcpKey{local: ih.Dst, lport: th.DstPort}]
		}
		if c != nil {
			c.Input(ih.Src, &th, seg[off:])
		}
	}
	w.queue = w.queue[:0]
}

// dial opens a connection from A to B's listener through w.
func (w *tcpWire) dial(l *tcp.Conn, port uint16) (cl, sv *tcp.Conn) {
	cl = w.newConn(addrA, port, addrB, 80)
	cl.Connect()
	w.pump()
	sv, ok := l.Accept()
	if !ok || cl.State != tcp.Established {
		panic(fmt.Sprintf("bench: tcp handshake failed: client %v", cl.State))
	}
	return cl, sv
}

// tcpDataSeg: one 1400-byte segment from client to server and its ACK,
// through both Conns' output and input paths.
func tcpDataSeg(b *testing.B) {
	w := newTCPWire()
	l := w.newConn(addrB, 80, pkt.Addr{}, 0)
	l.ListenOn(5)
	cl, sv := w.dial(l, 4000)
	cl.NoDelay, sv.AckEveryAck = true, true
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cl.Write(payload1400)
		w.pump()
		sinkBytes = sv.Read(len(payload1400))
		w.pump()
	}
	if len(sinkBytes) != len(payload1400) {
		b.Fatalf("read %d bytes", len(sinkBytes))
	}
}

// tcpHandshakeClose: a connection's whole life — three-way handshake,
// accept, orderly close from both ends and the TIME_WAIT expiry.
func tcpHandshakeClose(b *testing.B) {
	w := newTCPWire()
	l := w.newConn(addrB, 80, pkt.Addr{}, 0)
	l.ListenOn(5)
	for i := 0; i < b.N; i++ {
		cl, sv := w.dial(l, uint16(1024+i%60000))
		cl.Close()
		w.pump()
		sv.Close()
		w.pump()
		w.eng.RunFor(tcpTimeWait + 1)
	}
	b.StopTimer()
	if len(w.conns) != 1 {
		b.Fatalf("%d connections left, want the listener only", len(w.conns))
	}
}

func socketDgramEnqDeq(b *testing.B) {
	q := socket.NewDgramQueue(64)
	data := payload1400[:14]
	for i := 0; i < b.N; i++ {
		q.Enqueue(socket.Datagram{Data: data, Src: addrA, SPort: 9})
		sinkDgram, _ = q.Dequeue()
	}
}

// bigDatagram is a 32 KB UDP datagram, four fragments at the 9180 MTU.
func bigDatagram() []byte {
	return pkt.UDPPacket(addrA, addrB, 9, 7, 1, 64, make([]byte, 32*1024-pkt.IPv4HeaderLen-8), false)
}

func ipv4Fragment(b *testing.B) {
	d := bigDatagram()
	for i := 0; i < b.N; i++ {
		sinkFrags = ipv4.Fragment(d, ipv4.DefaultMTU)
	}
	if len(sinkFrags) != 4 {
		b.Fatalf("%d fragments", len(sinkFrags))
	}
}

func ipv4Reassemble4(b *testing.B) {
	frags := ipv4.Fragment(bigDatagram(), ipv4.DefaultMTU)
	r := ipv4.NewReassembler()
	for i := 0; i < b.N; i++ {
		var ok bool
		for _, f := range frags {
			sinkBytes, ok = r.Input(f, int64(i))
		}
		if !ok {
			b.Fatal("datagram not reassembled")
		}
	}
}
