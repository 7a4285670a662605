// Package trace provides a lightweight, bounded event log for the
// simulation: kernels and hosts append timestamped records (dispatches,
// interrupts, demux verdicts, queue drops) and tools dump them for
// debugging. A record is a fixed-size value built from constants and
// fields the trace site already holds, so appending one formats and
// allocates nothing; text is made only by Record.String and Log.Dump.
// Tracing is off unless a Log is attached, and appending to a nil Log
// costs the record built on the stack and one nil check, so instrumented
// code paths need no guard.
package trace

import (
	"fmt"
	"strings"
)

// Kind classifies a record.
type Kind uint8

// Record kinds.
const (
	KindDispatch Kind = iota // scheduler gave a process the CPU
	KindIntr                 // hardware interrupt work ran
	KindSoftIntr             // software interrupt work ran
	KindDemux                // a packet was classified
	KindDrop                 // a packet was dropped (What says where)
	KindDeliver              // a datagram reached a socket queue
)

var kindNames = [...]string{
	"dispatch", "intr", "softintr", "demux", "drop", "deliver",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Record is one log entry. Which fields a kind uses is fixed by String.
type Record struct {
	At   int64 // simulated µs, stamped by Add
	Kind Kind
	Port uint16 // local port of the socket concerned; 0 when none
	Node string // host or CPU name
	Proc string // the process given the CPU (KindDispatch)
	What string // a constant detail: the demux verdict, or where the drop happened
	N    int    // priority (KindDispatch) or bytes (KindDeliver)
}

func (r Record) String() string {
	var d string
	switch r.Kind {
	case KindDispatch:
		d = fmt.Sprintf("%s takes CPU (prio %d)", r.Proc, r.N)
	case KindIntr:
		d = "hw work done"
	case KindSoftIntr:
		d = "sw work done"
	case KindDemux:
		d = "verdict=" + r.What
	case KindDrop:
		d = r.What
		if r.Port != 0 {
			d += fmt.Sprintf(" port %d", r.Port)
		}
	case KindDeliver:
		d = fmt.Sprintf("udp %d bytes -> port %d", r.N, r.Port)
	}
	return fmt.Sprintf("%10dµs %-8s %s: %s", r.At, r.Kind, r.Node, d)
}

// Log is a bounded ring of records. The zero value is unusable; use New.
// A nil *Log accepts (and discards) records, so callers never need to
// check for enablement.
type Log struct {
	now  func() int64
	recs []Record // the ring, allocated whole by New
	n    uint64   // records ever added
}

// New creates a log holding up to capacity records (older records are
// overwritten). now supplies timestamps — typically sim.Engine.Now.
func New(capacity int, now func() int64) *Log {
	if capacity < 1 {
		capacity = 1
	}
	return &Log{now: now, recs: make([]Record, capacity)}
}

// Add stamps r with the current time and stores it, overwriting the
// oldest record once the ring is full. Safe on a nil log, and small
// enough to inline, so an untraced call site makes no call.
func (l *Log) Add(r Record) {
	if l != nil {
		l.add(r)
	}
}

// add is kept out of line so that Add stays within the inlining budget.
//
//go:noinline
func (l *Log) add(r Record) {
	r.At = l.now()
	l.recs[l.n%uint64(len(l.recs))] = r
	l.n++
}

// Len returns the number of retained records.
func (l *Log) Len() int {
	if l == nil {
		return 0
	}
	return int(min(l.n, uint64(len(l.recs))))
}

// Overwritten returns how many records were lost to the ring bound.
func (l *Log) Overwritten() uint64 {
	if l == nil {
		return 0
	}
	return l.n - uint64(l.Len())
}

// Records returns the retained records in chronological order.
func (l *Log) Records() []Record {
	if l == nil {
		return nil
	}
	if l.n <= uint64(len(l.recs)) {
		return append([]Record(nil), l.recs[:l.n]...)
	}
	i := l.n % uint64(len(l.recs))
	return append(append(make([]Record, 0, len(l.recs)), l.recs[i:]...), l.recs[:i]...)
}

// Dump renders the retained records, one per line.
func (l *Log) Dump() string {
	if l == nil {
		return ""
	}
	var b strings.Builder
	if o := l.Overwritten(); o > 0 {
		fmt.Fprintf(&b, "(%d earlier events overwritten)\n", o)
	}
	for _, r := range l.Records() {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	return b.String()
}
