package main

// metricDef declares one printed metric. BENCHMARK.json declares the same
// names with their direction and bound; bench_test.go keeps the two lists
// equal.
type metricDef struct{ name, unit string }

// e2eMetrics are printed by an untraced run: host time and memory a user
// of the simulator waits on, medians over the passes of the run.
var e2eMetrics = []metricDef{
	{"wall_s", "s"},             // setup + run + teardown + output check, summed over the worlds of a pass
	{"sim_pkts_per_s", "pkt/s"}, // netsim deliveries (one per hop) per host second inside Engine.RunFor
	{"setup_s", "s"},            // sim.NewEngine through the last generator Start, summed over worlds
	{"peak_rss_mb", "MB"},       // VmHWM of the process
}

// profiledLayers are the packages whose CPU self time a traced run
// reports as <layer>.self_pct; "gc" is the Go runtime.
var profiledLayers = []string{
	"sim", "kernel", "smp", "core", "gc", "pkt", "mbuf", "nic", "netsim", "fault", "pop", "demux", "tcp", "socket",
}

// layerMetrics are printed by a traced run.
var layerMetrics = []metricDef{
	{"sim.ns_per_event", "ns/event"},
	{"sim.events_per_pkt", "events/pkt"},
	{"sim.self_pct", "%"},
	{"sim.at_fire_ns", "ns"},
	{"sim.deep_queue_ns", "ns"},
	{"sim.cancel_ns", "ns"},
	{"sim.lane_post_fire_ns", "ns"},
	{"sim.post_batch8_ns", "ns"},
	{"sim.wheel_cascade_ns", "ns"},
	{"kernel.ctx_switches_per_pkt", "switches/pkt"},
	{"kernel.self_pct", "%"},
	{"kernel.consume_ns", "ns"},
	{"kernel.consume_sys_ns", "ns"},
	{"kernel.ctx_switch_ns", "ns"},
	{"kernel.sleep_wakeup_ns", "ns"},
	{"kernel.interrupted_consume_ns", "ns"},
	{"smp.ipis_per_pkt", "ipis/pkt"},
	{"smp.steals_per_pkt", "steals/pkt"},
	{"smp.self_pct", "%"},
	{"core.rx_ns_per_pkt.bsd", "ns/pkt"},
	{"core.rx_ns_per_pkt.ni-lrp", "ns/pkt"},
	{"core.rx_ns_per_pkt.soft-lrp", "ns/pkt"},
	{"core.rx_ns_per_pkt.early-demux", "ns/pkt"},
	{"core.rx_ns_per_pkt.polling", "ns/pkt"},
	{"core.sockets_at_end", "count"},
	{"core.self_pct", "%"},
	{"gc.self_pct", "%"},
	{"gc.alloc_bytes_per_pkt", "B/pkt"},
	{"gc.allocs_per_pkt", "allocs/pkt"},
	{"pkt.self_pct", "%"},
	{"pkt.append_udp_ns", "ns"},
	{"pkt.append_tcp1400_ns", "ns"},
	{"pkt.decode_ipv4_ns", "ns"},
	{"pkt.checksum1400_ns", "ns"},
	{"mbuf.in_use_at_shutdown", "count"},
	{"mbuf.high_water", "count"},
	{"mbuf.self_pct", "%"},
	{"mbuf.alloc_free_ns", "ns"},
	{"mbuf.queue_churn_ns", "ns"},
	{"nic.intrs_per_pkt", "intrs/pkt"},
	{"nic.self_pct", "%"},
	{"nic.rx_dequeue_ns", "ns"},
	{"netsim.hops_per_pkt", "hops/pkt"},
	{"netsim.lost_per_pkt", "lost/pkt"},
	{"netsim.self_pct", "%"},
	{"netsim.hop_ns", "ns"},
	{"fault.self_pct", "%"},
	{"fault.apply_ns", "ns"},
	{"pop.self_pct", "%"},
	{"demux.self_pct", "%"},
	{"demux.classify_hot_ns", "ns"},
	{"demux.classify_ns.n1e2", "ns"},
	{"demux.classify_ns.n1e4", "ns"},
	{"demux.classify_ns.n1e6", "ns"},
	{"tcp.self_pct", "%"},
	{"tcp.data_seg_ns", "ns"},
	{"tcp.handshake_close_ns", "ns"},
	{"socket.self_pct", "%"},
	{"socket.dgram_enq_deq_ns", "ns"},
	{"ipv4.fragment_ns", "ns"},
	{"ipv4.reassemble4_ns", "ns"},
	{"trace.overhead_pct", "%"},
}
