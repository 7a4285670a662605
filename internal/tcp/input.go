package tcp

import "lrp/internal/pkt"

// Input processes one received segment. src is the sending host's address
// (from the IP header), needed by listeners to address new children. The
// header must already be decoded and checksum-verified by the caller
// (which also accounts the processing cost in its own execution context).
func (c *Conn) Input(src pkt.Addr, h *pkt.TCPHeader, payload []byte) {
	c.Stats.SegsIn++

	if c.listening {
		c.listenInput(src, h)
		return
	}

	switch c.State {
	case Closed:
		// Stray segment to a dead connection: RST unless it is itself one.
		if h.Flags&pkt.TCPRst == 0 {
			c.sendRST(h.Ack)
		}
		return
	case SynSent:
		c.synSentInput(h)
		return
	}

	// RST processing (loose validation: accept any in-window reset).
	if h.Flags&pkt.TCPRst != 0 {
		c.Stats.DroppedSegs++
		c.notify(EvReset)
		c.toClosed()
		return
	}

	// A SYN on a synchronized connection: duplicate SYN|ACK retransmission
	// in SYN_RCVD is benign; anything else gets an ACK re-stating state.
	if h.Flags&pkt.TCPSyn != 0 && c.State != SynRcvd {
		c.sendAck()
		return
	}

	if h.Flags&pkt.TCPAck == 0 {
		c.Stats.DroppedSegs++
		return
	}

	c.ackInput(h)
	if c.State == Closed {
		return
	}

	if len(payload) > 0 || h.Flags&pkt.TCPFin != 0 {
		c.dataInput(h, payload)
	}

	// Piggyback transmission opportunities created by the ACK.
	c.output()
}

// listenInput handles segments arriving on a listening connection.
func (c *Conn) listenInput(src pkt.Addr, h *pkt.TCPHeader) {
	if h.Flags&pkt.TCPRst != 0 {
		return
	}
	if h.Flags&pkt.TCPSyn == 0 {
		// Not a connection request; stale segment (e.g. to a closed
		// child): ignore. A RST here would interfere with TIME_WAIT
		// assassination semantics we don't model.
		c.Stats.DroppedSegs++
		return
	}
	if c.BacklogFull() {
		// BSD drops the SYN silently once the backlog fills; the client
		// retransmits and backs off exponentially.
		c.Stats.SynDropped++
		return
	}
	if c.H.NewChild == nil {
		c.Stats.SynDropped++
		return
	}
	nc := c.H.NewChild(c, src, h.SrcPort)
	if nc == nil {
		c.Stats.SynDropped++
		return
	}
	nc.parent = c
	c.synCount++
	nc.State = SynRcvd
	nc.rcvNxt = h.Seq + 1
	nc.sndWnd = uint32(h.Window)
	if h.MSS != 0 && int(h.MSS) < nc.MSS {
		nc.MSS = int(h.MSS)
	}
	if nc.cwnd > nc.MSS {
		nc.cwnd = nc.MSS
	}
	nc.sndNxt = nc.iss + 1
	nc.sendFlags(pkt.TCPSyn|pkt.TCPAck, nc.iss, nil, true)
	nc.armRexmt()
}

// synSentInput completes an active open.
func (c *Conn) synSentInput(h *pkt.TCPHeader) {
	if h.Flags&pkt.TCPRst != 0 {
		// Connection refused.
		c.notify(EvReset)
		c.toClosed()
		return
	}
	if h.Flags&(pkt.TCPSyn|pkt.TCPAck) != pkt.TCPSyn|pkt.TCPAck {
		c.Stats.DroppedSegs++
		return
	}
	if h.Ack != c.iss+1 {
		c.sendRST(h.Ack)
		return
	}
	c.rcvNxt = h.Seq + 1
	c.sndUna = h.Ack
	c.sndWnd = uint32(h.Window)
	if h.MSS != 0 && int(h.MSS) < c.MSS {
		c.MSS = int(h.MSS)
	}
	if c.cwnd > c.MSS {
		c.cwnd = c.MSS
	}
	c.rexmits = 0
	c.H.DisarmTimer(c, TimerRexmt)
	c.State = Established
	c.sendAck()
	c.notify(EvEstablished)
	c.output()
}

// ackInput processes the acknowledgment and window fields.
func (c *Conn) ackInput(h *pkt.TCPHeader) {
	ack := h.Ack

	// Handshake completion for passive opens.
	if c.State == SynRcvd {
		if ack == c.iss+1 {
			c.sndUna = ack
			c.sndWnd = uint32(h.Window)
			c.rexmits = 0
			c.H.DisarmTimer(c, TimerRexmt)
			c.State = Established
			if p := c.parent; p != nil {
				p.synCount--
				p.acceptQ.Enqueue(c)
				p.notify(EvAcceptable)
			}
			c.notify(EvEstablished)
		}
		return
	}

	switch {
	case seqGT(ack, c.sndNxt):
		// Acks data we never sent.
		c.sendAck()
		return
	case seqLEQ(ack, c.sndUna):
		// Duplicate ACK.
		if ack == c.sndUna && c.SndBuf.Len() > 0 && uint32(h.Window) == c.sndWnd {
			c.Stats.DupAcksIn++
			c.dupAcks++
			if c.dupAcks == 3 {
				// Fast retransmit (Reno without full fast recovery): halve
				// the window and resend the missing segment.
				c.Stats.FastRexmts++
				half := c.halveFlight()
				c.ssthresh = half
				c.cwnd = half
				c.retransmitHead()
				c.armRexmt()
			}
		}
		c.sndWnd = uint32(h.Window)
		return
	}

	// New data acknowledged.
	c.dupAcks = 0
	acked := int(ack - c.sndUna)
	dataAcked := acked
	if c.finSent && ack == c.sndNxt {
		dataAcked-- // the FIN's sequence slot
	}
	if dataAcked > 0 {
		c.SndBuf.Discard(dataAcked)
		c.notify(EvWritable)
	}
	c.sndUna = ack
	c.sndWnd = uint32(h.Window)
	c.rexmits = 0

	// RTT sample.
	if c.rttStart != 0 && seqGEQ(ack, c.rttSeq) {
		c.updateRTT(c.H.Now() - c.rttStart)
		c.rttStart = 0
	}

	c.openCwnd()

	if c.sndUna == c.sndNxt {
		c.H.DisarmTimer(c, TimerRexmt)
	} else {
		c.armRexmt()
	}

	// Close-sequence state transitions driven by our FIN being acked.
	finAcked := c.finSent && ack == c.sndNxt
	switch c.State {
	case FinWait1:
		if finAcked {
			c.State = FinWait2
		}
	case Closing:
		if finAcked {
			c.enterTimeWait()
		}
	case LastAck:
		if finAcked {
			c.toClosed()
		}
	}
}

// dataInput processes the payload (and FIN) of a segment.
func (c *Conn) dataInput(h *pkt.TCPHeader, payload []byte) {
	seq := h.Seq
	fin := h.Flags&pkt.TCPFin != 0

	// Trim data already received.
	if seqLT(seq, c.rcvNxt) {
		skip := int(c.rcvNxt - seq)
		if skip >= len(payload) {
			if !fin || seqLT(seq+uint32(len(payload)), c.rcvNxt) {
				// Entirely duplicate.
				c.sendAck()
				return
			}
			payload = nil
		} else {
			payload = payload[skip:]
		}
		seq = c.rcvNxt
	}

	if seq != c.rcvNxt {
		// Out of order: queue (bounded) and send a duplicate ACK to
		// trigger fast retransmit at the sender.
		c.Stats.OOOSegs++
		if len(c.ooo) < oooLimit {
			cp := append([]byte(nil), payload...)                       //lrp:coldalloc loss-recovery path: the segment must outlive its mbuf
			c.ooo = append(c.ooo, oooSeg{seq: seq, data: cp, fin: fin}) //lrp:coldalloc loss-recovery path, bounded by oooLimit
		}
		c.sendAck()
		return
	}

	c.acceptData(payload, fin)
	c.drainOOO()
	if c.peerFinRcvd || len(payload) == 0 {
		// FIN (or pure window probes) are acknowledged immediately.
		c.sendAck()
		return
	}
	c.ackData()
}

// acceptData appends in-order payload to the receive buffer and handles a
// FIN that immediately follows it.
func (c *Conn) acceptData(payload []byte, fin bool) {
	if len(payload) > 0 {
		n := c.RcvBuf.Append(payload)
		// Bytes beyond the buffer are dropped; the advertised window
		// should have prevented this, but a shrunken window and data in
		// flight can race. The peer retransmits.
		c.rcvNxt += uint32(n)
		c.Stats.BytesIn += uint64(n)
		if n > 0 {
			c.notify(EvReadable)
		}
		if n < len(payload) {
			return // FIN (if any) is beyond what we accepted
		}
	}
	if fin && !c.peerFinRcvd {
		c.peerFinRcvd = true
		c.rcvNxt++
		c.notify(EvReadable)
		switch c.State {
		case Established:
			c.State = CloseWait
		case FinWait1:
			// Our FIN unacked and peer's FIN arrived: simultaneous close.
			c.State = Closing
		case FinWait2:
			c.enterTimeWait()
		}
	}
}

// drainOOO merges queued out-of-order segments that are now in order.
func (c *Conn) drainOOO() {
	for {
		progress := false
		for i := 0; i < len(c.ooo); i++ {
			s := c.ooo[i]
			if seqGT(s.seq, c.rcvNxt) {
				continue
			}
			// Usable: trim any overlap.
			payload := s.data
			if seqLT(s.seq, c.rcvNxt) {
				skip := int(c.rcvNxt - s.seq)
				if skip > len(payload) {
					payload = nil
				} else {
					payload = payload[skip:]
				}
			}
			c.acceptData(payload, s.fin)
			c.ooo = append(c.ooo[:i], c.ooo[i+1:]...)
			progress = true
			break
		}
		if !progress {
			return
		}
	}
}

// enterTimeWait starts the 2MSL wait.
func (c *Conn) enterTimeWait() {
	c.State = TimeWait
	c.H.DisarmTimer(c, TimerRexmt)
	c.H.DisarmTimer(c, TimerPersist)
	dur := c.H.TimeWaitDur
	if dur <= 0 {
		dur = 30 * 1000 * 1000
	}
	c.H.ArmTimer(c, TimerTimeWait, dur)
	c.notify(EvTimeWait)
}
