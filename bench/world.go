package main

import (
	"runtime"
	"runtime/metrics"
	"time"

	"lrp/internal/core"
	"lrp/internal/netsim"
	"lrp/internal/sim"
)

// world is one simulation world of a workload: run builds it through the
// public constructors, drives it through m, and returns its headline
// output (a results point), which the pass compares against the archive
// or feeds to the shape checks.
type world struct {
	id  string
	run func(m *meter) any
}

// counts are the per-layer counters of a set of worlds, read through the
// layers' public Stats() after each world's run phase.
type counts struct {
	runNs       int64  // host ns inside Engine.RunFor
	events      uint64 // Engine.Processed
	delivered   uint64 // netsim deliveries, one per hop
	wire        uint64 // packets put on the wire: generator injections and host transmissions
	forwarded   uint64 // host transmissions that forwarded a packet
	lost        uint64 // netsim fault-pipeline drops
	ctxSwitches uint64
	ipis        uint64
	steals      uint64
	intrs       uint64 // NIC host interrupts
	allocBytes  uint64 // heap bytes allocated inside RunFor
	allocs      uint64 // heap objects allocated inside RunFor
	mbufInUse   int    // host pool buffers still outstanding after Shutdown
	mbufHigh    int    // highest host pool high-water mark
	sockets     int    // most sockets any one host held at the end of a world
}

func (c *counts) add(o counts) {
	c.runNs += o.runNs
	c.events += o.events
	c.delivered += o.delivered
	c.wire += o.wire
	c.forwarded += o.forwarded
	c.lost += o.lost
	c.ctxSwitches += o.ctxSwitches
	c.ipis += o.ipis
	c.steals += o.steals
	c.intrs += o.intrs
	c.allocBytes += o.allocBytes
	c.allocs += o.allocs
	c.mbufInUse += o.mbufInUse
	c.mbufHigh = max(c.mbufHigh, o.mbufHigh)
	c.sockets = max(c.sockets, o.sockets)
}

// meter times one world's phases from the benchmark's side of each layer
// call and records every phase as a span. Setup runs from the meter's
// creation (just before sim.NewEngine) to the first RunFor.
type meter struct {
	world   string
	rec     *recorder
	start   time.Time
	inSetup bool
	setup   time.Duration
	c       counts
}

func newMeter(id string, rec *recorder) *meter {
	return &meter{world: id, rec: rec, start: time.Now(), inSetup: true}
}

// span starts a named span inside the current phase; call the returned
// function to end it.
func (m *meter) span(name string) func() {
	t := time.Now()
	return func() { m.rec.add(name, m.world, t, time.Since(t)) }
}

// runFor advances eng by d µs of simulated time, timing the call and the
// heap allocations it makes.
func (m *meter) runFor(eng *sim.Engine, d int64) {
	if m.inSetup {
		m.inSetup = false
		m.setup = time.Since(m.start)
		m.rec.add("setup", m.world, m.start, m.setup)
	}
	b0, o0 := heapAllocs()
	t := time.Now()
	eng.RunFor(d)
	el := time.Since(t)
	b1, o1 := heapAllocs()
	m.rec.add("RunFor", m.world, t, el)
	m.c.runNs += el.Nanoseconds()
	m.c.allocBytes += b1 - b0
	m.c.allocs += o1 - o0
}

// finish reads the world's layer counters, then shuts every host down in
// the given order, timing the teardown.
func (m *meter) finish(eng *sim.Engine, nw *netsim.Network, hosts []*core.Host) {
	ns := nw.Stats()
	m.c.events += eng.Processed()
	m.c.delivered += ns.Delivered
	m.c.lost += ns.Lost
	m.c.wire += ns.Injected
	for _, h := range hosts {
		for _, k := range h.CPUs {
			m.c.ctxSwitches += k.Stats().CtxSwitches
		}
		if h.Cluster != nil {
			for _, s := range h.Cluster.Stats() {
				m.c.ipis += s.IPIsDelivered
				m.c.steals += s.Steals
			}
		}
		st := h.NIC.Stats()
		m.c.intrs += st.HostIntrs
		m.c.wire += st.TxPackets
		m.c.forwarded += h.ForwardStats().Forwarded
		m.c.mbufHigh = max(m.c.mbufHigh, h.Pool.Stats().HighWater)
		m.c.sockets = max(m.c.sockets, len(h.Sockets()))
	}
	end := m.span("Shutdown")
	for _, h := range hosts {
		h.Shutdown()
	}
	end()
	for _, h := range hosts {
		m.c.mbufInUse += h.Pool.Stats().InUse
	}
}

var allocSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/tiny/allocs:objects"},
}

// heapAllocs returns the process's cumulative heap allocation, in bytes
// and objects (tiny allocations included, as MemStats.Mallocs counts
// them), without stopping the world.
func heapAllocs() (bytes, objects uint64) {
	metrics.Read(allocSamples)
	return allocSamples[0].Value.Uint64(), allocSamples[1].Value.Uint64() + allocSamples[2].Value.Uint64()
}

// worldResult is one world's measurement.
type worldResult struct {
	out   any
	wall  time.Duration
	setup time.Duration
	cal   time.Duration // the calibration sample taken just before the world
	c     counts
	err   any // recovered panic
}

// runWorld runs w after a forced collection, so each world starts from a
// settled heap, and a calibration sample; neither is part of the world's
// wall time.
func runWorld(w world, rec *recorder) (r worldResult) {
	runtime.GC()
	cal := calibrate()
	m := newMeter(w.id, rec)
	defer func() {
		if p := recover(); p != nil {
			r = worldResult{cal: cal, err: p}
		}
	}()
	out := w.run(m)
	r = worldResult{out: out, wall: time.Since(m.start), setup: m.setup, cal: cal, c: m.c}
	rec.add("world", w.id, m.start, r.wall)
	return r
}
