package core

// LRP daemon processes: the idle-time protocol processing thread and the
// ICMP proxy daemon. "Processing for certain network packets cannot be
// directly attributed to any application process... this processing is
// charged to daemon processes that act as proxies for a particular
// protocol."

import (
	"encoding/binary"

	"lrp/internal/kernel"
	"lrp/internal/pkt"
	"lrp/internal/socket"
)

// idlePollInterval is how often the idle thread re-checks channels when it
// found nothing to do. It runs at the weakest possible priority, so this
// only spends otherwise-idle cycles.
const idlePollInterval = 250

// startICMPDaemon creates the ICMP proxy: a pseudo-socket bound to the
// ICMP protocol with its own NI channel, drained by a daemon process that
// is charged for the processing (and whose priority controls it). The
// daemon body lives in daemonsteps.go (icmpdStep).
func (h *Host) startICMPDaemon() {
	s := socket.NewSocket(socket.Dgram, nil)
	s.Proto = pkt.ProtoICMP
	s.Local = h.Addr
	s.RecvDgrams = socket.NewDgramQueue(h.CM.SockQueueLimit)
	h.sockets = append(h.sockets, s)
	h.icmpSock = s
	h.attachChannel(s)
	h.pcbs.BindProto(pkt.ProtoICMP, s)
	proc := h.K.SpawnStep(h.Name+"/icmpd", 0, h.icmpdStep(s))
	proc.Pinned = true // kernel daemon: never migrated off CPU 0
	s.Owner = proc
}

// icmpProcess answers echo requests; everything else is counted and
// dropped (the stack does not originate errors).
//
//lrp:coldalloc control-plane path: echo replies are off the benchmarked data path
func (h *Host) icmpProcess(ih *pkt.IPv4Header, seg []byte) {
	if len(seg) < 8 || seg[0] != 8 { // ICMP echo request
		h.stats.ProtoDrops++
		return
	}
	if pkt.Checksum(seg) != 0 {
		h.stats.ProtoDrops++
		return
	}
	h.icmpEchoReplies++
	reply := make([]byte, pkt.IPv4HeaderLen+len(seg))
	copy(reply[pkt.IPv4HeaderLen:], seg)
	r := reply[pkt.IPv4HeaderLen:]
	r[0] = 0 // echo reply
	r[2], r[3] = 0, 0
	ck := pkt.Checksum(r)
	binary.BigEndian.PutUint16(r[2:], ck)
	oh := pkt.IPv4Header{
		TotalLen: uint16(len(reply)),
		ID:       h.nextIPID(),
		TTL:      64,
		Proto:    pkt.ProtoICMP,
		Src:      h.Addr,
		Dst:      ih.Src,
	}
	pkt.EncodeIPv4(reply, &oh)
	_ = h.ipOutput(nil, nil, reply)
}

// EchoReplies returns the number of ICMP echo replies the host has sent.
func (h *Host) EchoReplies() uint64 { return h.icmpEchoReplies }

// Ping sends an ICMP echo request from process p and returns once it has
// been transmitted (replies arrive asynchronously; use EchoesReceived on
// the sender to observe them). payloadLen pads the request.
func (h *Host) Ping(p *kernel.Proc, dst pkt.Addr, seqno uint16, payloadLen int) {
	p.ComputeSys(h.CM.SyscallFixed + h.CM.IPOutCost)
	seg := make([]byte, 8+payloadLen)
	seg[0] = 8 // echo request
	binary.BigEndian.PutUint16(seg[6:], seqno)
	binary.BigEndian.PutUint16(seg[2:], pkt.Checksum(seg))
	b := make([]byte, pkt.IPv4HeaderLen+len(seg))
	copy(b[pkt.IPv4HeaderLen:], seg)
	oh := pkt.IPv4Header{
		TotalLen: uint16(len(b)),
		ID:       h.nextIPID(),
		TTL:      64,
		Proto:    pkt.ProtoICMP,
		Src:      h.Addr,
		Dst:      dst,
	}
	pkt.EncodeIPv4(b, &oh)
	_ = h.ipOutput(p, nil, b)
}
