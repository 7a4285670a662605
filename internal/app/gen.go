package app

// Packet-build plumbing shared by the traffic generators. Each generator
// owns a private, unbounded mbuf pool and builds its packets in recycled
// storage, so a long blast run stops allocating once the pool's free
// lists reach the in-flight high-water mark.

import (
	"lrp/internal/mbuf"
	"lrp/internal/netsim"
	"lrp/internal/pkt"
)

// injectUDP builds an IPv4/UDP packet in recycled pool storage and places
// it on the wire; the storage returns to the pool once the network has
// finished delivering the packet.
func injectUDP(nw *netsim.Network, pool *mbuf.Pool, src, dst pkt.Addr, sport, dport, id uint16, size int) {
	m := pool.AllocBuf(pkt.UDPTotalLen(size))
	m.Data = pkt.AppendUDP(m.Data, src, dst, sport, dport, id, 64, pkt.Zeros(size), true)
	nw.InjectMbuf(m)
}
