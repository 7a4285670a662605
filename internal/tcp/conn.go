// Package tcp implements the TCP state machine used by every network
// subsystem architecture in the reproduction: connection establishment
// with listen backlog, sliding-window data transfer, RTT estimation,
// retransmission with exponential backoff, slow start and congestion
// avoidance, fast retransmit, window probing, and the full close sequence
// including a configurable TIME_WAIT period (the paper's HTTP experiment
// sets it to 500 ms).
//
// The package is execution-context free: segment processing is performed
// by whoever calls Input — a software interrupt (BSD/Early-Demux), the
// LRP asynchronous protocol processing thread, or a receive system call —
// and costs are accounted by the caller. Interaction with the environment
// (sending packets, arming timers, waking sockets) goes through Hooks.
package tcp

import (
	"fmt"

	"lrp/internal/fifo"
	"lrp/internal/pkt"
	"lrp/internal/socket"
)

// State is a TCP connection state.
type State int

// TCP states.
const (
	Closed State = iota
	Listen
	SynSent
	SynRcvd
	Established
	FinWait1
	FinWait2
	CloseWait
	Closing
	LastAck
	TimeWait
)

var stateNames = [...]string{
	"CLOSED", "LISTEN", "SYN_SENT", "SYN_RCVD", "ESTABLISHED",
	"FIN_WAIT_1", "FIN_WAIT_2", "CLOSE_WAIT", "CLOSING", "LAST_ACK",
	"TIME_WAIT",
}

func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// Timer identifies one of a connection's timers.
type Timer int

// Connection timers.
const (
	TimerRexmt Timer = iota
	TimerPersist
	TimerTimeWait
	TimerDelack
	NumTimers
)

func (t Timer) String() string {
	switch t {
	case TimerRexmt:
		return "rexmt"
	case TimerPersist:
		return "persist"
	case TimerTimeWait:
		return "timewait"
	case TimerDelack:
		return "delack"
	}
	return "?"
}

// Event is a connection notification delivered via Hooks.Notify.
type Event int

// Connection events.
const (
	// EvEstablished: active open completed.
	EvEstablished Event = iota
	// EvAcceptable: a new connection is ready on a listener's accept queue.
	EvAcceptable
	// EvReadable: receive data (or a FIN) became available.
	EvReadable
	// EvWritable: send buffer space became available.
	EvWritable
	// EvTimeWait: the connection entered TIME_WAIT (NI-LRP deallocates the
	// NI channel here).
	EvTimeWait
	// EvClosed: the connection is fully closed and deallocated.
	EvClosed
	// EvReset: the connection was reset (or gave up retransmitting).
	EvReset
)

// Hooks connects a Conn to its host environment. All callbacks run in the
// context of whatever code called into the Conn.
type Hooks struct {
	// Now returns the current time in µs.
	Now func() int64
	// Output transmits a fully encoded IP packet. b is built in a scratch
	// buffer shared by every connection using these Hooks and reused for
	// the next segment any of them sends: it is valid only until Output
	// returns, so the host must copy (or fully consume) it first.
	Output func(c *Conn, b []byte)
	// ArmTimer (re)schedules a timer to fire after delay µs; DisarmTimer
	// cancels it. The host must call TimerExpire in an appropriate
	// processing context when it fires.
	ArmTimer    func(c *Conn, t Timer, delay int64)
	DisarmTimer func(c *Conn, t Timer)
	// Notify reports socket-visible events.
	Notify func(c *Conn, ev Event)
	// NewChild allocates a connection for an incoming SYN on listener l.
	// The host creates the Conn (with its own ISS), binds it in its
	// demultiplexing tables, and returns it; returning nil refuses the
	// connection (silent drop).
	NewChild func(l *Conn, remote pkt.Addr, rport uint16) *Conn
	// Dealloc tears down host state (PCB/channel bindings) for a dead conn.
	Dealloc func(c *Conn)
	// TimeWaitDur is the 2MSL wait; the paper's Fig. 5 runs used 500 ms
	// instead of the default 30 s.
	TimeWaitDur int64
	// MaxSynRetries bounds SYN/SYN-ACK retransmissions.
	MaxSynRetries int

	// tx is the scratch every segment is built in (see Output); its zero
	// value grows on the first segment.
	tx []byte
}

// Stats counts per-connection protocol events.
type Stats struct {
	SegsIn      uint64
	SegsOut     uint64
	BytesIn     uint64
	BytesOut    uint64
	Retransmits uint64
	FastRexmts  uint64
	DupAcksIn   uint64
	OOOSegs     uint64
	DroppedSegs uint64 // segments dropped by protocol processing
	SynDropped  uint64 // SYNs dropped at a full listen backlog
}

// Default protocol parameters.
const (
	DefaultMSS = 9140 // ATM MTU 9180 - 40 bytes of headers
	DefaultBuf = 32 * 1024
	minRTO     = 200 * 1000       // 200 ms
	maxRTO     = 64 * 1000 * 1000 // 64 s
	initialRTO = 1000 * 1000      // 1 s
	persistIvl = 5 * 1000 * 1000
	maxRexmits = 8
	oooLimit   = 32
)

type oooSeg struct {
	seq  uint32
	data []byte
	fin  bool
}

// Conn is one TCP connection (or listener).
type Conn struct {
	H *Hooks

	Local  pkt.Addr
	LPort  uint16
	Remote pkt.Addr
	RPort  uint16

	State State

	// UserData points back at the owning socket; opaque to this package.
	UserData any
	// Timers is the host's bookkeeping for this connection's timers,
	// opaque to this package: kept on the Conn, it lets ArmTimer and
	// DisarmTimer reach it without a lookup.
	Timers any

	// Send state.
	iss       uint32
	sndUna    uint32
	sndNxt    uint32
	sndWnd    uint32
	SndBuf    socket.StreamBuf
	finQueued bool
	finSent   bool
	cwnd      int
	ssthresh  int
	dupAcks   int
	rexmits   int
	rttSeq    uint32
	rttStart  int64
	srtt      int64 // scaled: actual srtt (µs)
	rttvar    int64

	// Receive state.
	rcvNxt      uint32
	RcvBuf      socket.StreamBuf
	lastAdvWnd  uint32
	ooo         []oooSeg
	peerFinRcvd bool

	// MSS is the negotiated maximum segment size.
	MSS int

	// NoDelay disables Nagle's algorithm (small segments are held while
	// data is in flight, as 4.4BSD does by default).
	NoDelay bool
	// AckEveryAck disables delayed acknowledgments (BSD acknowledges
	// every second segment or after the fast-timeout, whichever first).
	AckEveryAck   bool
	delackPending bool
	delackSegs    int

	// Listener state.
	listening bool
	backlog   int
	synCount  int
	acceptQ   fifo.Queue[*Conn]
	parent    *Conn

	ipID uint16

	Stats Stats
}

// NewConn creates a connection object in the Closed state.
func NewConn(h *Hooks, local pkt.Addr, lport uint16, remote pkt.Addr, rport uint16, iss uint32) *Conn {
	c := new(Conn)
	c.Init(h, local, lport, remote, rport, iss)
	return c
}

// Init sets up c in place as NewConn's result, for a host that keeps the
// Conn inside a larger record. c must be the zero Conn.
func (c *Conn) Init(h *Hooks, local pkt.Addr, lport uint16, remote pkt.Addr, rport uint16, iss uint32) {
	c.H = h
	c.Local, c.LPort = local, lport
	c.Remote, c.RPort = remote, rport
	c.iss, c.sndUna, c.sndNxt = iss, iss, iss
	c.SndBuf.Limit = DefaultBuf
	c.RcvBuf.Limit = DefaultBuf
	c.MSS = DefaultMSS
	c.cwnd = DefaultMSS
	c.ssthresh = 64 * 1024
}

// SetBufSizes resizes the socket buffers (must be called before data
// transfer; the paper's throughput test used 32 KByte buffers).
func (c *Conn) SetBufSizes(snd, rcv int) {
	c.SndBuf.Limit = snd
	c.RcvBuf.Limit = rcv
}

// ListenOn puts the connection into LISTEN with the given backlog.
func (c *Conn) ListenOn(backlog int) {
	if backlog < 1 {
		backlog = 1
	}
	c.State = Listen
	c.listening = true
	c.backlog = backlog
}

// BacklogFull reports whether a new SYN would currently be refused —
// LRP's trigger for disabling protocol processing on the listen channel.
func (c *Conn) BacklogFull() bool {
	return c.listening && c.synCount+c.acceptQ.Len() >= c.backlog
}

// Accept dequeues an established connection from a listener.
func (c *Conn) Accept() (*Conn, bool) {
	nc, ok := c.acceptQ.Dequeue()
	if !ok {
		return nil, false
	}
	nc.parent = nil
	return nc, true
}

// AcceptQueueLen returns the number of connections awaiting accept.
func (c *Conn) AcceptQueueLen() int { return c.acceptQ.Len() }

// Connect starts an active open (sends the SYN).
func (c *Conn) Connect() {
	c.State = SynSent
	c.sndNxt = c.iss
	c.sendFlags(pkt.TCPSyn, c.sndNxt, nil, true)
	c.sndNxt++
	c.armRexmt()
}

// SndNxt returns the next send sequence number (observability/testing).
func (c *Conn) SndNxt() uint32 { return c.sndNxt }

// RcvNxt returns the next expected receive sequence number.
func (c *Conn) RcvNxt() uint32 { return c.rcvNxt }

// Cwnd returns the current congestion window in bytes.
func (c *Conn) Cwnd() int { return c.cwnd }

// SRTT returns the smoothed round-trip time estimate in µs (0 before the
// first sample).
func (c *Conn) SRTT() int64 { return c.srtt }

// Readable returns the number of bytes available to read, and whether the
// peer has closed (EOF after the bytes are drained).
func (c *Conn) Readable() (int, bool) {
	return c.RcvBuf.Len(), c.peerFinRcvd
}

// Read removes up to n bytes from the receive buffer into a new slice,
// sending a window update if the window had collapsed.
func (c *Conn) Read(n int) []byte {
	if l := c.RcvBuf.Len(); n > l {
		n = l
	}
	out := make([]byte, n)
	c.ReadInto(out)
	return out
}

// ReadInto moves up to len(p) bytes from the receive buffer into p and
// returns the number moved, sending a window update if the window had
// collapsed.
func (c *Conn) ReadInto(p []byte) int {
	wasSmall := c.windowSmall()
	n := c.RcvBuf.ReadInto(p)
	if n > 0 && wasSmall && !c.windowSmall() {
		// Window opened meaningfully: tell the peer.
		c.sendAck()
	}
	return n
}

// windowSmall reports whether the advertisable window is below the
// update threshold: two segments or half the receive buffer, whichever is
// smaller (the BSD window-update criterion).
func (c *Conn) windowSmall() bool {
	threshold := 2 * c.MSS
	if lim := c.RcvBuf.Limit; lim > 0 && lim/2 < threshold {
		threshold = lim / 2
	}
	return c.RcvBuf.Space() < threshold
}

// Write appends data to the send buffer and transmits what the windows
// allow; it returns the number of bytes accepted.
func (c *Conn) Write(data []byte) int {
	if c.State != Established && c.State != CloseWait {
		return 0
	}
	if c.finQueued {
		return 0
	}
	n := c.SndBuf.Append(data)
	c.output()
	return n
}

// WriteSpace returns the free space in the send buffer.
func (c *Conn) WriteSpace() int { return c.SndBuf.Space() }

// Close performs an orderly close: any buffered data is sent first, then a
// FIN. Reading is still possible until the peer closes.
func (c *Conn) Close() {
	switch c.State {
	case Closed, Listen, SynSent:
		c.toClosed()
		return
	case Established:
		c.State = FinWait1
	case CloseWait:
		c.State = LastAck
	default:
		return // already closing
	}
	c.finQueued = true
	c.output()
}

// Abort sends a RST and discards the connection immediately.
func (c *Conn) Abort() {
	if c.State != Closed && c.State != Listen && c.State != SynSent {
		c.sendRST(c.sndNxt)
	}
	c.toClosed()
}

// toClosed finalizes teardown. Every timer is disarmed, the delayed ACK
// included: a dead connection sends nothing more.
func (c *Conn) toClosed() {
	if c.State == Closed && !c.listening {
		return
	}
	prev := c.State
	c.State = Closed
	c.listening = false
	for t := Timer(0); t < NumTimers; t++ {
		c.H.DisarmTimer(c, t)
	}
	c.delackPending = false
	if c.parent != nil {
		// Dying embryonic connection: release the backlog slot.
		c.parent.synCount--
		c.parent = nil
	}
	if c.H.Dealloc != nil {
		c.H.Dealloc(c)
	}
	if prev != Closed {
		c.notify(EvClosed)
	}
}

func (c *Conn) notify(ev Event) {
	if c.H.Notify != nil {
		c.H.Notify(c, ev)
	}
}

// rcvWnd returns the window to advertise.
func (c *Conn) rcvWnd() uint16 {
	sp := c.RcvBuf.Space()
	if sp > 65535 {
		sp = 65535
	}
	return uint16(sp)
}

// sendFlags emits a control/data segment.
func (c *Conn) sendFlags(flags byte, seq uint32, payload []byte, withMSS bool) {
	h := pkt.TCPHeader{
		SrcPort: c.LPort,
		DstPort: c.RPort,
		Seq:     seq,
		Window:  c.rcvWnd(),
		Flags:   flags,
	}
	if flags&pkt.TCPAck != 0 {
		h.Ack = c.rcvNxt
	}
	if withMSS {
		h.MSS = uint16(c.MSS)
	}
	c.ipID++
	c.H.tx = pkt.AppendTCP(c.H.tx[:0], c.Local, c.Remote, &h, c.ipID, 64, payload)
	c.Stats.SegsOut++
	c.Stats.BytesOut += uint64(len(payload))
	c.lastAdvWnd = uint32(h.Window)
	c.H.Output(c, c.H.tx)
}

// sendAck emits a bare ACK advertising the current window and clears any
// pending delayed acknowledgment.
func (c *Conn) sendAck() {
	c.clearDelack()
	c.sendFlags(pkt.TCPAck, c.sndNxt, nil, false)
}

// delackInterval is the delayed-ACK fast timeout (BSD's 200 ms fasttimo
// fires, on average, 100 ms after data arrives).
const delackInterval = 100 * 1000

// ackData acknowledges received in-order data: immediately for every
// second segment (or when disabled), otherwise after the delack timer.
func (c *Conn) ackData() {
	if c.AckEveryAck {
		c.sendAck()
		return
	}
	c.delackSegs++
	if c.delackSegs >= 2 {
		c.sendAck()
		return
	}
	if !c.delackPending {
		c.delackPending = true
		c.H.ArmTimer(c, TimerDelack, delackInterval)
	}
}

// clearDelack cancels a pending delayed acknowledgment (any segment we
// transmit carries the ACK anyway).
func (c *Conn) clearDelack() {
	c.delackSegs = 0
	if c.delackPending {
		c.delackPending = false
		c.H.DisarmTimer(c, TimerDelack)
	}
}

// sendRST emits a reset.
func (c *Conn) sendRST(seq uint32) {
	h := pkt.TCPHeader{
		SrcPort: c.LPort, DstPort: c.RPort,
		Seq: seq, Ack: c.rcvNxt,
		Flags: pkt.TCPRst | pkt.TCPAck,
	}
	c.ipID++
	c.H.tx = pkt.AppendTCP(c.H.tx[:0], c.Local, c.Remote, &h, c.ipID, 64, nil)
	c.Stats.SegsOut++
	c.H.Output(c, c.H.tx)
}
