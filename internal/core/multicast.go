package core

// UDP multicast groups. Per the paper (§3.1): "Multiple sockets bound to
// the same UDP multicast group share a single NI channel", and the
// priority at which the shared channel's traffic is processed is "the
// highest of the participating processes' priorities" (§3, footnote 5).
//
// A group is represented by a hidden group socket bound in the
// demultiplexing tables; arriving packets land on its (single) NI channel
// under LRP or are fanned out by the software interrupt under BSD.
// Whichever member performs the receive system call processes the packet
// lazily and fans the datagram out to every member's socket queue.

import (
	"lrp/internal/kernel"
	"lrp/internal/pkt"
	"lrp/internal/socket"
)

type mcastKey struct {
	group pkt.Addr
	port  uint16
}

// mcastGroup tracks one joined group on a host.
type mcastGroup struct {
	key     mcastKey
	gsock   *socket.Socket // hidden endpoint bound in the demux table
	members []*socket.Socket
}

// JoinGroup subscribes s (owned by p) to a multicast group on the given
// port. The socket must not be bound to a unicast port.
func (h *Host) JoinGroup(p *kernel.Proc, s *socket.Socket, group pkt.Addr, port uint16) error {
	if !group.IsMulticast() {
		return ErrNotBound
	}
	if s.Bound {
		return ErrPortInUse
	}
	if p != nil {
		p.ComputeSys(h.CM.SyscallFixed)
	}
	if h.mcast == nil {
		h.mcast = make(map[mcastKey]*mcastGroup)
		h.mcastBySock = make(map[*socket.Socket]*mcastGroup)
		h.mcastMember = make(map[*socket.Socket]*mcastGroup)
	}
	key := mcastKey{group, port}
	g := h.mcast[key]
	if g == nil {
		gs := socket.NewSocket(socket.Dgram, s.Owner)
		gs.Local = group
		gs.LPort = port
		gs.Bound = true
		gs.RecvDgrams = socket.NewDgramQueue(h.CM.SockQueueLimit)
		h.sockets = append(h.sockets, gs)
		h.addIdleCandidate(gs)
		h.pcbs.BindListen(pkt.ProtoUDP, group, port, gs)
		h.attachChannel(gs) // the single shared NI channel
		g = &mcastGroup{key: key, gsock: gs}
		h.mcast[key] = g
		h.mcastBySock[gs] = g
	}
	g.members = append(g.members, s)
	s.LPort = port
	s.Bound = true
	s.Local = group
	h.mcastMember[s] = g
	return nil
}

// LeaveGroup unsubscribes s; the last member tears the group down
// (releasing the shared channel).
func (h *Host) LeaveGroup(p *kernel.Proc, s *socket.Socket) {
	g := h.mcastMember[s]
	if g == nil {
		return
	}
	if p != nil {
		p.ComputeSys(h.CM.SyscallFixed)
	}
	delete(h.mcastMember, s)
	for i, m := range g.members {
		if m == s {
			g.members = append(g.members[:i], g.members[i+1:]...)
			break
		}
	}
	s.Bound = false
	if len(g.members) == 0 {
		h.pcbs.UnbindListen(pkt.ProtoUDP, g.key.group, g.key.port)
		h.detachChannel(g.gsock)
		g.gsock.Closed = true
		h.releaseSocket(g.gsock)
		delete(h.mcast, g.key)
		delete(h.mcastBySock, g.gsock)
	}
}

// groupOf returns the multicast group a demultiplexed socket represents,
// if any.
func (h *Host) groupOf(s *socket.Socket) *mcastGroup {
	if h.mcastBySock == nil {
		return nil
	}
	return h.mcastBySock[s]
}

// mcastOwnerPrio returns the best (lowest) priority among member owners;
// the group socket's Owner mirrors that process so channel signals and
// APP charging follow "the highest of the participating processes'
// priorities".
func (g *mcastGroup) bestOwner() *kernel.Proc {
	var best *kernel.Proc
	for _, m := range g.members {
		o := m.Owner
		if o == nil {
			continue
		}
		if best == nil || o.Prio() < best.Prio() {
			best = o
		}
	}
	return best
}

// mcastSignal wakes the best-priority member with a sleeping receiver.
func (h *Host) mcastSignal(g *mcastGroup) {
	var best *socket.Socket
	for _, m := range g.members {
		if m.RcvWait.Len() == 0 {
			continue
		}
		if best == nil || (m.Owner != nil && best.Owner != nil && m.Owner.Prio() < best.Owner.Prio()) {
			best = m
		}
	}
	if best != nil {
		best.RcvWait.WakeupBest()
	}
}
