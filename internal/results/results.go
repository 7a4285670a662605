// Package results defines the typed result records the experiment
// drivers produce, a versioned JSON container for whole benchmark runs,
// and a shape-assertion library (checks.go) that encodes the paper's
// qualitative claims — who wins, where systems collapse, fairness
// bands — as machine-checkable predicates.
//
// The row types here are the single source of truth: internal/exp
// aliases them for live runs, and the same structs decode saved JSON,
// so a regression checker can treat a fresh sweep and an archived run
// identically.
package results

import (
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"strings"
)

// SchemaVersion is bumped whenever a row type or the Suite container
// changes incompatibly; Decode refuses files from other versions.
const SchemaVersion = 1

// Table1Row is one row of Table 1: "Throughput and Latency".
type Table1Row struct {
	System    string  `json:"system"`
	RTTMicros float64 `json:"rtt_us"`   // 1-byte UDP ping-pong round trip
	UDPMbps   float64 `json:"udp_mbps"` // sliding-window UDP throughput
	TCPMbps   float64 `json:"tcp_mbps"` // 24 MB transfer, 32 KB buffers
}

// Fig3Point is one point of Figure 3: "Throughput versus offered load".
type Fig3Point struct {
	Offered   int64   `json:"offered"`   // client transmission rate, pkts/s
	Delivered float64 `json:"delivered"` // rate consumed by the server process
}

// Fig3Series is one system's Figure 3 curve.
type Fig3Series struct {
	System string      `json:"system"`
	Points []Fig3Point `json:"points"`
}

// MLFRRRow reports one system's Maximum Loss-Free Receive Rate.
type MLFRRRow struct {
	System string  `json:"system"`
	MLFRR  int64   `json:"mlfrr"` // pkts/s
	Peak   float64 `json:"peak"`
}

// Fig4Point is one point of Figure 4: "Latency with concurrent load".
type Fig4Point struct {
	BgRate    int64   `json:"bg_rate"` // background blast rate, pkts/s
	RTTMicros float64 `json:"rtt_us"`  // ping-pong round-trip latency
	Lost      int     `json:"lost"`    // latency probes that went unanswered
}

// Fig4Series is one system's Figure 4 curve.
type Fig4Series struct {
	System string      `json:"system"`
	Points []Fig4Point `json:"points"`
}

// Table2Row is one cell-group of Table 2: "Synthetic RPC Server
// Workload".
type Table2Row struct {
	Workload      string  `json:"workload"` // Fast / Medium / Slow
	System        string  `json:"system"`
	WorkerElapsed float64 `json:"worker_elapsed_s"`
	ServerRPCRate float64 `json:"server_rpc_rate"`
	WorkerShare   float64 `json:"worker_share"` // worker CPU / elapsed, ideal 1/3
}

// Fig5Point is one point of Figure 5: "HTTP Server Throughput" under a
// SYN flood.
type Fig5Point struct {
	SYNRate    int64   `json:"syn_rate"`
	HTTPPerSec float64 `json:"http_per_sec"`
}

// Fig5Series is one system's Figure 5 curve.
type Fig5Series struct {
	System string      `json:"system"`
	Points []Fig5Point `json:"points"`
}

// AblationRow is one measurement of an ablation experiment.
type AblationRow struct {
	Experiment string  `json:"experiment"`
	Variant    string  `json:"variant"`
	Metric     string  `json:"metric"`
	Value      float64 `json:"value"`
}

// MediaRow reports delivery jitter for the 30 fps media stream under
// background blast (the paper's §2.2 multimedia motivation).
type MediaRow struct {
	System       string  `json:"system"`
	BgRate       int64   `json:"bg_rate"`
	MeanJitterUs float64 `json:"mean_jitter_us"`
	P99JitterUs  int64   `json:"p99_jitter_us"`
	FramesLost   int64   `json:"frames_lost"`
}

// FaultPoint is one sweep point of a robustness curve: one impairment
// severity and how one system fared under it. The UDP metrics (goodput,
// p99, probes, victim share) are populated for the UDP robustness rig;
// TCPMbps is populated for the TCP transfer rig. Unused metrics are
// zero.
type FaultPoint struct {
	Severity    float64 `json:"severity"`     // impairment axis value; meaning given by FaultCurve.Axis
	GoodputPps  float64 `json:"goodput_pps"`  // blast packets consumed by the server process per second
	P99Us       int64   `json:"p99_us"`       // ping-pong p99 RTT in µs; -1 when every probe was lost
	ProbesLost  int     `json:"probes_lost"`  // latency probes that went unanswered
	VictimShare float64 `json:"victim_share"` // CPU share kept by a competing compute process
	TCPMbps     float64 `json:"tcp_mbps"`     // TCP transfer goodput (TCP rig only)
}

// FaultSeries is one system's robustness curve under one impairment.
type FaultSeries struct {
	System string       `json:"system"`
	Points []FaultPoint `json:"points"`
}

// FaultCurve is one impairment class's per-architecture sweep.
type FaultCurve struct {
	Impairment string        `json:"impairment"` // fault kind, e.g. "loss", "ge-loss", "ring-overrun"
	Axis       string        `json:"axis"`       // what Severity measures, e.g. "loss rate"
	Series     []FaultSeries `json:"series"`
}

// SMPPoint is one core-count cell of a multi-core scaling curve: the
// aggregate blast goodput a multi-CPU server consumes, the p99 latency
// of a probe running beside the blast, and the SMP-machinery counters
// (remote wakeups, IPIs taken, steals, idle halts) summed over CPUs.
type SMPPoint struct {
	Cores       int     `json:"cores"`
	OfferedPps  int64   `json:"offered_pps"`  // aggregate blast rate across all flows
	GoodputPps  float64 `json:"goodput_pps"`  // blast packets consumed by sink processes per second
	P99Us       int64   `json:"p99_us"`       // ping-pong p99 RTT in µs; -1 when every probe was lost
	RemoteWakes uint64  `json:"remote_wakes"` // cross-CPU wakeups during the measurement run
	IPIs        uint64  `json:"ipis"`         // inter-processor interrupts delivered
	Steals      uint64  `json:"steals"`       // processes migrated by work stealing
	Halts       uint64  `json:"halts"`        // idle-halt transitions
}

// SMPSeries is one (system, queue-mode) scaling curve: Queues is
// "single" (one rx ring, every network interrupt on CPU 0) or "multi"
// (one RSS-steered ring per core; NI-LRP routes channel interrupts to
// the owning process's CPU instead).
type SMPSeries struct {
	System string     `json:"system"`
	Queues string     `json:"queues"`
	Points []SMPPoint `json:"points"`
}

// WANPoint is one offered-load cell of an internet-scale sweep: the
// aggregate request rate offered by the modeled client population, the
// rate the server application consumed, and the drops at the server and
// summed over the topology's transit gateways.
type WANPoint struct {
	OfferedPps  int64   `json:"offered_pps"`  // population aggregate rate, pkts/s
	GoodputPps  float64 `json:"goodput_pps"`  // packets consumed by the server process per second
	ServerDrops uint64  `json:"server_drops"` // drops on the server host during measurement
	GwDrops     uint64  `json:"gw_drops"`     // drops summed over transit gateways
	Forwarded   uint64  `json:"forwarded"`    // packets forwarded by gateways during measurement
}

// WANSeries is one (topology, system) sweep of aggregated-population
// load: Clients is the modeled client count behind the topology's
// edges, Procs the stackless generator procs emitting it (the
// aggregation ratio the pop subsystem exists for), Impaired the named
// fault scenario applied per hop ("" for clean cells).
type WANSeries struct {
	Topology string     `json:"topology"` // "1hop", "chain3", "tree16", ...
	System   string     `json:"system"`
	Clients  int        `json:"clients"`
	Procs    int        `json:"procs"`
	Impaired string     `json:"impaired,omitempty"`
	Points   []WANPoint `json:"points"`
}

// Experiment is one named experiment's typed payload. Exactly one data
// field is populated: the one whose JSON key is Name (Validate enforces
// it). Each data field pairs with one row of exp.Registry, in the same
// order.
type Experiment struct {
	Name      string        `json:"name"`
	Table1    []Table1Row   `json:"table1,omitempty"`
	Fig3      []Fig3Series  `json:"fig3,omitempty"`
	MLFRR     []MLFRRRow    `json:"mlfrr,omitempty"`
	Fig4      []Fig4Series  `json:"fig4,omitempty"`
	Table2    []Table2Row   `json:"table2,omitempty"`
	Fig5      []Fig5Series  `json:"fig5,omitempty"`
	Ablations []AblationRow `json:"ablations,omitempty"`
	Media     []MediaRow    `json:"media,omitempty"`
	Faults    []FaultCurve  `json:"faults,omitempty"`
	SMP       []SMPSeries   `json:"smp,omitempty"`
	WAN       []WANSeries   `json:"wan,omitempty"`
}

// Suite is a whole lrpbench run: run parameters plus every experiment's
// rows, in canonical order. Suites contain no timestamps or host
// details, so two runs with the same seed and flags encode to identical
// bytes regardless of parallelism.
type Suite struct {
	Schema      int          `json:"schema"`
	Tool        string       `json:"tool"`
	Seed        uint64       `json:"seed"`
	Quick       bool         `json:"quick"`
	Experiments []Experiment `json:"experiments"`
}

// NewSuite returns an empty suite stamped with the current schema.
func NewSuite(seed uint64, quick bool) *Suite {
	return &Suite{Schema: SchemaVersion, Tool: "lrpbench", Seed: seed, Quick: quick}
}

// Add appends one experiment's payload.
func (s *Suite) Add(e Experiment) { s.Experiments = append(s.Experiments, e) }

// Find returns the named experiment's payload, or nil.
func (s *Suite) Find(name string) *Experiment {
	for i := range s.Experiments {
		if s.Experiments[i].Name == name {
			return &s.Experiments[i]
		}
	}
	return nil
}

// payloadKeys returns the JSON keys of e's populated payload fields,
// read from the struct tags so this package keeps no list of names.
func (e *Experiment) payloadKeys() []string {
	var keys []string
	v := reflect.ValueOf(e).Elem()
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Kind() == reflect.Slice && f.Len() > 0 {
			keys = append(keys, strings.TrimSuffix(v.Type().Field(i).Tag.Get("json"), ",omitempty"))
		}
	}
	return keys
}

// Validate checks structural integrity: schema version, tool tag, and
// that every experiment entry carries rows under its own name and under
// no other.
func (s *Suite) Validate() error {
	if s.Schema != SchemaVersion {
		return fmt.Errorf("results: schema %d, this tool reads %d", s.Schema, SchemaVersion)
	}
	if s.Tool != "lrpbench" {
		return fmt.Errorf("results: unknown tool %q", s.Tool)
	}
	for i := range s.Experiments {
		e := &s.Experiments[i]
		if keys := e.payloadKeys(); len(keys) != 1 || keys[0] != e.Name {
			return fmt.Errorf("results: experiment %d (%q) carries rows under %q, want exactly its own name", i, e.Name, keys)
		}
	}
	return nil
}

// Encode writes the suite as indented JSON with a trailing newline.
// The encoding is deterministic: struct-field order, no timestamps.
func (s *Suite) Encode(w io.Writer) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// Decode reads and validates a suite produced by Encode.
func Decode(r io.Reader) (*Suite, error) {
	var s Suite
	dec := json.NewDecoder(r)
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("results: decode: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}
