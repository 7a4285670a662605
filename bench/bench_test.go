package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"runtime/pprof"
	"testing"
	"time"
)

// TestArchivedWorlds runs one cheap world of each workload and checks it
// against its archived value, as a seed-1 benchmark run does for all.
func TestArchivedWorlds(t *testing.T) {
	cheap := map[string]string{
		"udp-overload": "udp-overload/bsd/1000",
		"tcp-web":      "tcp-web/soft-lrp/20000",
		"smp-rss":      "smp-rss/bsd/single/1",
		"wan":          "wan/1hop/bsd/2000",
	}
	for _, r := range recipes {
		want, err := archived(r, options{seed: 1, root: ".."})
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for i, w := range r.worlds(1) {
			if w.id != cheap[r.name] {
				continue
			}
			found = true
			res := runWorld(w, newRecorder())
			if res.err != nil {
				t.Fatalf("%s: panic: %v", w.id, res.err)
			}
			if res.out != want[i] {
				t.Errorf("%s: got %+v, archive has %+v", w.id, res.out, want[i])
			}
			if res.c.delivered == 0 || res.c.runNs <= 0 || res.setup <= 0 {
				t.Errorf("%s: empty measurement %+v", w.id, res.c)
			}
		}
		if !found {
			t.Errorf("%s: no world %q", r.name, cheap[r.name])
		}
	}
}

// TestMetricsMatchBenchmarkJSON keeps the printed metrics and workloads
// identical to the ones BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	compare := func(kind string, printed []metricDef, declared []metric) {
		if len(printed) != len(declared) {
			t.Errorf("%s: prints %d metrics, BENCHMARK.json declares %d", kind, len(printed), len(declared))
		}
		units := map[string]string{}
		for _, d := range declared {
			units[d.Name] = d.Unit
		}
		for _, m := range printed {
			if !valid.MatchString(m.name) {
				t.Errorf("%s: metric name %q", kind, m.name)
			}
			if u, ok := units[m.name]; !ok || u != m.unit {
				t.Errorf("%s: %s in %s is declared as %q", kind, m.name, m.unit, u)
			}
		}
	}
	compare("end_to_end", e2eMetrics, decl.EndToEnd)
	compare("per_layer", layerMetrics, decl.PerLayer)
	if len(decl.Workloads) != len(recipes) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(decl.Workloads), len(recipes))
	}
	for i, w := range decl.Workloads {
		if w.Name != recipes[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, recipes[i].name)
		}
	}
}

func TestLayerOf(t *testing.T) {
	for sym, want := range map[string]string{
		"lrp/internal/sim.(*Engine).Step":                                            "sim",
		"lrp/internal/core.(*Host).demuxHostIntr.func1":                              "core",
		"lrp/internal/demux.(*Table[go.shape.*lrp/internal/socket.Socket]).Classify": "demux",
		"lrp/internal/pkt.Checksum":                                                  "pkt",
		"runtime.mallocgc":                                                           "gc",
		"internal/runtime/maps.(*Map).getWithKey":                                    "gc",
		"main.spin":  "other",
		"sort.Slice": "other",
	} {
		if got := layerOf(sym); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", sym, got, want)
		}
	}
}

var spinSink int

func spin(d time.Duration) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			spinSink += i
		}
	}
}

// TestLayerSelfPct reads back a real CPU profile: the shares add up to
// 100% and the busy loop's package dominates.
func TestLayerSelfPct(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Fatal(err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	self, err := layerSelfPct(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, v := range self {
		sum += v
	}
	if sum < 99.9 || sum > 100.1 || self["other"] < 50 {
		t.Fatalf("self shares %v", self)
	}
}
