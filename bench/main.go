// Command bench is the repository's performance benchmark: it times the
// simulator on four archived experiments and checks every simulated
// world's output, so a faster simulator that computes something different
// counts as a failure, not a win.
//
// From the repository root:
//
//	bash bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
//
// or, from this directory, `go run . [flags]`; without --workload each
// workload runs once in its own child process. See README.md for the
// metrics and how to read them.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"

	"lrp/internal/results"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	root     string
	out      string
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload to run: udp-overload, tcp-web, smp-rss or wan (default: each in its own child process)")
	fs.Uint64Var(&o.seed, "seed", 1, "traffic seed; seed 1 is checked against the results archives")
	fs.IntVar(&o.seconds, "seconds", 0, "repeat whole passes while they fit in this many seconds (0: one pass)")
	fs.IntVar(&o.trace, "trace", 0, "1: add a profiled pass, spans, micro-benchmarks and per-layer metrics")
	fs.StringVar(&o.root, "root", "..", "repository root, where results/ lives")
	fs.StringVar(&o.out, "out", "", "trace output directory (default ROOT/.bench_build/trace)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 || (o.trace != 0 && o.trace != 1) || o.seconds < 0 {
		fs.Usage()
		return 2
	}
	if o.out == "" {
		o.out = filepath.Join(o.root, ".bench_build", "trace")
	}
	if o.workload == "" {
		return runAll(o, stdout, stderr)
	}
	r, ok := findRecipe(o.workload)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", o.workload)
		return 2
	}
	res, err := runWorkload(r, o, stdout, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", r.name, err)
		return 1
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !res.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload in its own child process, so each reports
// its own peak RSS and starts from a fresh heap.
func runAll(o options, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	status := 0
	for _, r := range recipes {
		cmd := exec.Command(self, "--workload", r.name, "--seed", strconv.FormatUint(o.seed, 10),
			"--seconds", strconv.Itoa(o.seconds), "--trace", strconv.Itoa(o.trace), "--root", o.root, "--out", o.out)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", r.name, err)
			status = 1
		}
	}
	return status
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runWorkload checks r's worlds at o.seed and returns its end-to-end
// metrics over whole passes run while the next one fits in o.seconds, or
// its per-layer metrics when o.trace is 1.
func runWorkload(r recipe, o options, stdout, stderr io.Writer) (result, error) {
	want, err := archived(r, o)
	if err != nil {
		return result{}, err
	}
	ws := r.worlds(o.seed)
	ck := &checker{r: r, want: want, log: stderr}
	if o.trace == 1 {
		return traceWorkload(r, o, ws, ck, stdout)
	}
	start := time.Now()
	var passes [][]worldResult
	for {
		t := time.Now()
		passes = append(passes, runPass(ws, ck, newRecorder()))
		if time.Since(start)+time.Since(t) > time.Duration(o.seconds)*time.Second {
			break
		}
	}
	rss, err := peakRSSMB()
	if err != nil {
		return result{}, err
	}
	f := fastest(passes)
	scale := speedScale(passes...)
	vals := map[string]float64{
		"wall_s":         scale * f.wall.Seconds(),
		"setup_s":        scale * f.setup.Seconds(),
		"sim_pkts_per_s": float64(f.c.delivered) / (scale * float64(f.c.runNs) / 1e9),
		"peak_rss_mb":    rss,
	}
	res := newResult(e2eMetrics, vals, ck)
	fmt.Fprintf(stdout, "%s seed=%d passes=%d\n", r.name, o.seed, len(passes))
	fmt.Fprintf(stdout, "  host times x %.4f: unscaled wall %.4f s, setup %.6f s, RunFor %.4f s\n",
		scale, f.wall.Seconds(), f.setup.Seconds(), float64(f.c.runNs)/1e9)
	printMetrics(stdout, e2eMetrics, res)
	fmt.Fprintf(stdout, "  %-34s %16d count\n  %-34s %16d count\n", "worlds", ck.worlds, "worlds_failed", ck.failed)
	return res, nil
}

// archived returns the workload's archived outputs in world order, or nil
// at a seed the archives were not made with.
func archived(r recipe, o options) ([]any, error) {
	if o.seed != 1 {
		return nil, nil
	}
	f, err := os.Open(filepath.Join(o.root, r.archive))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s, err := results.Decode(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", r.archive, err)
	}
	e := s.Find(r.exp)
	if e == nil {
		return nil, fmt.Errorf("%s: no %s experiment", r.archive, r.exp)
	}
	want := flatten(e)
	if n := len(r.worlds(1)); len(want) != n {
		return nil, fmt.Errorf("%s: %s has %d points, the recipe builds %d worlds", r.archive, r.exp, len(want), n)
	}
	return want, nil
}

// checker judges every world's output. At seed 1 each output must equal
// its archived value. At other seeds each sweep must pass the paper's
// shape checks, and every later sweep must repeat the first one exactly.
type checker struct {
	r      recipe
	want   []any
	log    io.Writer
	worlds int
	failed int
}

// sweep records one sweep's world results.
func (c *checker) sweep(ws []world, rs []worldResult) {
	c.worlds += len(rs)
	outs := make([]any, len(rs))
	bad := 0
	for i, r := range rs {
		switch {
		case r.err != nil:
			fmt.Fprintf(c.log, "%s: panic: %v\n", ws[i].id, r.err)
			bad++
		case c.want != nil && r.out != c.want[i]:
			fmt.Fprintf(c.log, "%s: got %+v, want %+v\n", ws[i].id, r.out, c.want[i])
			bad++
		}
		outs[i] = r.out
	}
	c.failed += bad
	if c.want != nil || bad > 0 {
		return
	}
	violated := false
	for _, v := range c.r.check(outs) {
		if seedSensitive[v.Check] {
			fmt.Fprintf(c.log, "%s: shape check (seed-sensitive, not counted): %s\n", c.r.name, v)
			continue
		}
		fmt.Fprintf(c.log, "%s: shape check: %s\n", c.r.name, v)
		violated = true
	}
	if violated {
		c.failed += len(rs)
		return
	}
	c.want = outs
}

// seedSensitive names the shape checks that hold at the archived seed but
// that the traffic seed alone can flip; at other seeds they are reported
// and not counted. Seeds 2-41 of the four workloads fail no other check.
var seedSensitive = map[string]bool{
	// SOFT-LRP's 4-core p99 is lower multi-queue than single-queue at
	// seeds 1-9 but higher at 26 of seeds 10-41 (seed 10: 448 vs 375 µs).
	"soft-latency-contrast": true,
	// An IPI raised just before the measured window and taken inside it
	// counts one more IPI than wakeups (seeds 20 and 41, e.g. 5614 for 5613).
	"ipi-coalesced": true,
}

// runPass runs every world of every sweep once, serially, and returns the
// results in world order, sweep after sweep.
func runPass(ws []world, ck *checker, rec *recorder) []worldResult {
	var all []worldResult
	for rep := 0; rep < ck.r.reps; rep++ {
		rs := make([]worldResult, len(ws))
		for i, w := range ws {
			rs[i] = runWorld(w, rec)
		}
		ck.sweep(ws, rs)
		all = append(all, rs...)
	}
	return all
}

// sum totals one pass's world results.
func sum(rs []worldResult) worldResult {
	var t worldResult
	for _, r := range rs {
		t.wall += r.wall
		t.setup += r.setup
		t.c.add(r.c)
	}
	return t
}

// fastest totals one pass with each world's wall, setup and RunFor time
// taken from its fastest pass. Every pass repeats identical simulated
// work, so the fastest repetition is the one least slowed by other load
// on the machine, which comes in bursts of seconds.
func fastest(passes [][]worldResult) worldResult {
	best := slices.Clone(passes[0])
	for _, rs := range passes[1:] {
		for i, r := range rs {
			best[i].wall = min(best[i].wall, r.wall)
			best[i].setup = min(best[i].setup, r.setup)
			best[i].c.runNs = min(best[i].c.runNs, r.c.runNs)
		}
	}
	return sum(best)
}

// traceWorkload runs one plain pass (the per-layer counts and the tracing
// baseline), one pass under the CPU profiler with its spans written out,
// then the micro-benchmark rows.
func traceWorkload(r recipe, o options, ws []world, ck *checker, stdout io.Writer) (result, error) {
	dir := filepath.Join(o.out, r.name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return result{}, err
	}
	plainRs := runPass(ws, ck, newRecorder())
	plain := sum(plainRs)

	profPath := filepath.Join(dir, "cpu.pprof")
	f, err := os.Create(profPath)
	if err != nil {
		return result{}, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return result{}, err
	}
	rec := newRecorder()
	tracedRs := runPass(ws, ck, rec)
	traced := sum(tracedRs)
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return result{}, err
	}
	if err := rec.write(filepath.Join(dir, "spans.json")); err != nil {
		return result{}, err
	}
	self, err := layerSelfPct(profPath)
	if err != nil {
		return result{}, err
	}

	c := plain.c
	per := func(n uint64) float64 { return float64(n) / float64(c.delivered) }
	originated := float64(c.wire - c.forwarded)
	vals := map[string]float64{
		"sim.ns_per_event":            float64(c.runNs) / float64(c.events),
		"sim.events_per_pkt":          per(c.events),
		"kernel.ctx_switches_per_pkt": per(c.ctxSwitches),
		"smp.ipis_per_pkt":            per(c.ipis),
		"smp.steals_per_pkt":          per(c.steals),
		"core.sockets_at_end":         float64(c.sockets),
		"gc.alloc_bytes_per_pkt":      per(c.allocBytes),
		"gc.allocs_per_pkt":           per(c.allocs),
		"mbuf.in_use_at_shutdown":     float64(c.mbufInUse),
		"mbuf.high_water":             float64(c.mbufHigh),
		"nic.intrs_per_pkt":           per(c.intrs),
		"netsim.hops_per_pkt":         float64(c.delivered) / originated,
		"netsim.lost_per_pkt":         float64(c.lost) / originated,
		"trace.overhead_pct":          100 * (traced.wall.Seconds()*speedScale(tracedRs)/(plain.wall.Seconds()*speedScale(plainRs)) - 1),
	}
	for _, l := range profiledLayers {
		vals[l+".self_pct"] = self[l]
	}
	for _, sys := range fig3Systems {
		vals["core.rx_ns_per_pkt."+sys.short] = rxNsPerPkt(sys, o.seed)
	}
	for _, m := range microRows {
		vals[m.name] = runMicro(m.fn)
	}
	res := newResult(layerMetrics, vals, ck)
	fmt.Fprintf(stdout, "%s seed=%d traced: worlds=%d worlds_failed=%d profile=%s spans=%s\n",
		r.name, o.seed, ck.worlds, ck.failed, profPath, filepath.Join(dir, "spans.json"))
	printMetrics(stdout, layerMetrics, res)
	return res, nil
}

// newResult pairs every declared metric with its value; a declared metric
// without a value, or a value without a declaration, is a bug.
func newResult(defs []metricDef, vals map[string]float64, ck *checker) result {
	if len(vals) != len(defs) {
		panic(fmt.Sprintf("bench: %d metric values for %d declared metrics", len(vals), len(defs)))
	}
	res := result{Correct: ck.failed == 0, Attempted: ck.worlds, Failed: ck.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			panic("bench: no value for metric " + d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return res
}

func printMetrics(w io.Writer, defs []metricDef, res result) {
	for _, d := range defs {
		fmt.Fprintf(w, "  %-34s %16.6g %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}
