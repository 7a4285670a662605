package app

import (
	"bytes"
	"fmt"

	"lrp/internal/core"
	"lrp/internal/kernel"
	"lrp/internal/metrics"
	"lrp/internal/pkt"
	"lrp/internal/sim"
	"lrp/internal/socket"
)

// HTTPServer models NCSA httpd 1.5.1 in the paper's Fig. 5 setup: a
// listening socket, a handler process per connection, a ~1300-byte
// document, and an HTTP/1.0 close after each response.
type HTTPServer struct {
	Host    *core.Host
	Port    uint16
	Backlog int
	// DocSize is the response body size ("approximately 1300 bytes").
	DocSize int
	// PerRequestCompute models request parsing, filesystem lookup and
	// response generation.
	PerRequestCompute int64

	Served  metrics.Counter
	Proc    *kernel.Proc
	started bool
	// resp is the response, built once by Start. SendStream copies it into
	// each connection's send buffer, so every handler shares it.
	resp []byte
	// rbuf receives every handler's request. A handler only tests a read
	// for end of stream, so they share it.
	rbuf []byte
}

// Start spawns the accept loop; each connection is handled by its own
// process, as NCSA httpd used a process per connection.
func (s *HTTPServer) Start() {
	if s.Backlog == 0 {
		s.Backlog = 16
	}
	if s.DocSize == 0 {
		s.DocSize = 1300
	}
	if s.PerRequestCompute == 0 {
		s.PerRequestCompute = 500
	}
	s.resp = s.doc()
	s.rbuf = make([]byte, httpReqMax)
	var (
		pc  int
		l   *socket.Socket
		n   int
		lis core.ListenOp
		acc core.AcceptOp
	)
	s.Proc = s.Host.K.SpawnStep("httpd", 0, func(p *kernel.Proc) {
		for {
			switch pc {
			case 0:
				l = s.Host.NewTCPSocket(p)
				if err := s.Host.BindTCP(l, s.Port); err != nil {
					panic(err)
				}
				pc = 1
			case 1:
				if !s.Host.ListenStep(p, l, s.Backlog, &lis) {
					return
				}
				if lis.Err != nil {
					panic(lis.Err)
				}
				s.started = true
				pc = 2
			case 2:
				if !s.Host.AcceptStep(p, l, &acc) {
					return
				}
				if acc.Err != nil {
					p.ReqExit()
					return
				}
				cs := acc.NS
				acc = core.AcceptOp{}
				n++
				name := fmt.Sprintf("httpd-%d", n)
				hd := &httpHandler{s: s, cs: cs, rs: core.RecvStreamOp{Buf: s.rbuf}}
				s.Host.K.SpawnStep(name, 0, hd.step)
			}
		}
	})
}

// httpReqMax bounds one read of a request.
const httpReqMax = 4096

// httpHandler is the per-connection handler machine: read the request,
// compute, respond, close. Its state and system-call frames are one
// allocation.
type httpHandler struct {
	s  *HTTPServer
	cs *socket.Socket
	pc int
	rs core.RecvStreamOp
	ss core.SendStreamOp
	cl core.CloseTCPOp
}

func (hd *httpHandler) step(p *kernel.Proc) {
	s, cs := hd.s, hd.cs
	for {
		switch hd.pc {
		case 0:
			if !s.Host.RecvStreamStep(p, cs, httpReqMax, &hd.rs) {
				return
			}
			if hd.rs.Err != nil || hd.rs.Data == nil {
				s.Host.AbortTCP(nil, cs)
				p.ReqExit()
				return
			}
			hd.pc = 1
			if p.ReqCompute(s.PerRequestCompute) {
				return
			}
		case 1:
			hd.ss = core.SendStreamOp{Data: s.resp}
			hd.pc = 2
		case 2:
			if !s.Host.SendStreamStep(p, cs, &hd.ss) {
				return
			}
			if hd.ss.Err != nil {
				s.Host.AbortTCP(nil, cs)
				p.ReqExit()
				return
			}
			hd.pc = 3
		case 3:
			if !s.Host.CloseTCPStep(p, cs, &hd.cl) {
				return
			}
			s.Served.Inc()
			p.ReqExit()
			return
		}
	}
}

// doc builds the response document.
func (s *HTTPServer) doc() []byte {
	head := []byte("HTTP/1.0 200 OK\r\nContent-Type: text/html\r\n\r\n")
	body := bytes.Repeat([]byte("x"), s.DocSize)
	return append(head, body...)
}

// HTTPClient continually requests the document, opening a fresh connection
// per transfer (HTTP/1.0 semantics, "eight HTTP clients on a single
// machine continually request HTTP transfers from the server").
type HTTPClient struct {
	Host       *core.Host
	ServerAddr pkt.Addr
	ServerPort uint16
	Name       string

	Completed metrics.Counter
	Failures  metrics.Counter
	Latency   metrics.Histogram
	Proc      *kernel.Proc
}

// httpRequest is the request every client sends; SendStream copies it
// into the connection's send buffer.
var httpRequest = []byte("GET /index.html HTTP/1.0\r\n\r\n")

// httpRespMax bounds one read of a response.
const httpRespMax = 16 * 1024

// HTTP client machine states: one fetch per pass through hcConn..hcClose.
const (
	hcStart = iota
	hcConn
	hcSend
	hcRecv
	hcClose
)

// Start spawns the client process: a loop of HTTP/1.0 transactions, each
// on a fresh connection, with a browser-like pause after a failure.
func (c *HTTPClient) Start() {
	var (
		pc    int
		start sim.Time
		sck   *socket.Socket
		ok    bool
		conn  core.ConnectTCPOp
		ss    core.SendStreamOp
		rs    core.RecvStreamOp
		cl    core.CloseTCPOp
		// rbuf receives every read; the client only counts the bytes. It
		// is made on the first read, which keeps it out of world setup:
		// that is Start and the first steps, which SpawnStep runs at once.
		rbuf []byte
	)
	fail := func(p *kernel.Proc) bool {
		c.Host.AbortTCP(nil, sck)
		c.Failures.Inc()
		pc = hcStart
		// Brief pause before retrying a failed transfer, like a browser
		// user.
		return p.ReqDelay(100 * sim.Millisecond)
	}
	c.Proc = c.Host.K.SpawnStep(c.Name, 0, func(p *kernel.Proc) {
		for {
			switch pc {
			case hcStart:
				start = p.Now()
				sck = c.Host.NewTCPSocket(p)
				ok = false
				conn = core.ConnectTCPOp{}
				pc = hcConn
			case hcConn:
				if !c.Host.ConnectTCPStep(p, sck, c.ServerAddr, c.ServerPort, &conn) {
					return
				}
				if conn.Err != nil {
					if fail(p) {
						return
					}
					continue
				}
				ss = core.SendStreamOp{Data: httpRequest}
				pc = hcSend
			case hcSend:
				if !c.Host.SendStreamStep(p, sck, &ss) {
					return
				}
				if ss.Err != nil {
					if fail(p) {
						return
					}
					continue
				}
				if rbuf == nil {
					rbuf = make([]byte, httpRespMax)
				}
				rs = core.RecvStreamOp{Buf: rbuf}
				pc = hcRecv
			case hcRecv:
				if !c.Host.RecvStreamStep(p, sck, httpRespMax, &rs) {
					return
				}
				if rs.Err != nil {
					if fail(p) {
						return
					}
					continue
				}
				if rs.Data == nil { // EOF
					cl = core.CloseTCPOp{}
					pc = hcClose
					continue
				}
				if len(rs.Data) > 0 {
					ok = true
				}
				rs = core.RecvStreamOp{Buf: rbuf}
			case hcClose:
				if !c.Host.CloseTCPStep(p, sck, &cl) {
					return
				}
				if ok {
					c.Completed.Inc()
					c.Latency.Add(p.Now() - start)
					pc = hcStart
					continue
				}
				c.Failures.Inc()
				pc = hcStart
				// Brief pause before retrying a failed transfer, like a
				// browser user.
				if p.ReqDelay(100 * sim.Millisecond) {
					return
				}
			}
		}
	})
}
