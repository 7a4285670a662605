package core

// IP forwarding (§3.5). Forwarded packets "cannot be directly attributed
// to any application process", so under LRP they are demultiplexed onto
// the NI channel of an IP forwarding daemon: "an IP forwarding daemon is
// charged for CPU time spent on forwarding IP packets, and its priority
// controls resources spent on IP forwarding. The IP daemon competes with
// other processes for CPU time." Under BSD, forwarding happens in
// software-interrupt context, charged to whoever happens to run — and
// uncontrollable.

import (
	"lrp/internal/kernel"
	"lrp/internal/pkt"
	"lrp/internal/socket"
)

// ForwardStats counts gateway activity.
type ForwardStats struct {
	Forwarded uint64
	TTLDrops  uint64
	FwdErrors uint64
}

// ForwardStats returns the gateway counters.
func (h *Host) ForwardStats() ForwardStats { return h.fwdStats }

// EnableForwarding turns the host into an IP gateway. Under LRP a
// forwarding daemon process is spawned with the given nice value (its
// priority is the resource-control knob the paper describes); under BSD
// and Early-Demux the nice value is ignored — forwarding runs eagerly in
// interrupt context, which is exactly the uncontrolled behaviour LRP
// fixes.
func (h *Host) EnableForwarding(nice int) {
	if h.forwarding {
		return
	}
	h.forwarding = true
	if !h.Arch.IsLRP() {
		return
	}
	s := socket.NewSocket(socket.Dgram, nil)
	s.Proto = 0 // pseudo-protocol: bound explicitly, not via the demux table
	s.Local = h.Addr
	h.sockets = append(h.sockets, s)
	h.fwdSock = s
	h.attachChannel(s, nil)
	proc := h.K.SpawnStep(h.Name+"/ipfwd", nice, h.proxyStep(s))
	proc.Pinned = true // kernel daemon: never migrated off CPU 0
	s.Owner = proc
}

// FwdProc returns the LRP forwarding daemon process (nil otherwise).
func (h *Host) FwdProc() *kernel.Proc {
	if h.fwdSock == nil {
		return nil
	}
	return h.fwdSock.Owner
}

// isForeign reports whether a raw packet is addressed to another host.
func (h *Host) isForeign(b []byte) bool {
	if len(b) < pkt.IPv4HeaderLen {
		return false
	}
	var dst pkt.Addr
	copy(dst[:], b[16:20])
	return dst != h.Addr && !dst.IsMulticast()
}

// forwardPacket decrements the TTL in ih, the decoded header of packet b,
// rebuilds b in the transmit scratch buffer, and retransmits it. The
// caller accounts the CPU cost.
func (h *Host) forwardPacket(ih *pkt.IPv4Header, b []byte) {
	if ih.TTL <= 1 {
		// A router would send ICMP time-exceeded; the simulation counts
		// and drops.
		h.fwdStats.TTLDrops++
		return
	}
	h.txScratch = append(h.txScratch[:0], b[:int(ih.TotalLen)]...) //lrp:coldalloc amortized: the scratch grows to the largest packet the host sends, then is reused
	ih.TTL--
	pkt.EncodeIPv4(h.txScratch, ih)
	if h.ipOutput(nil, nil, h.txScratch) == nil {
		h.fwdStats.Forwarded++
	} else {
		h.fwdStats.FwdErrors++
	}
}
