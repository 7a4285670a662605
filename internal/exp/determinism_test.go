package exp

// Regression tests for the properties the sweep runner depends on:
// identical seeds reproduce byte-identical results, parallel execution
// is indistinguishable from serial, and the Progress plumbing delivers
// callbacks (concurrently when Parallel > 1).

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"lrp/internal/race"
	"lrp/internal/results"
)

// marshal renders series to the exact bytes the JSON suite would carry,
// so "byte-identical" means what `lrpbench -json` means by it.
func marshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestFig3Determinism(t *testing.T) {
	serial := Options{Quick: true, Seed: 42}
	a := marshal(t, Fig3(serial))
	b := marshal(t, Fig3(serial))
	if !bytes.Equal(a, b) {
		t.Fatalf("same seed, serial runs diverged:\n%s\n%s", a, b)
	}
	par := marshal(t, Fig3(Options{Quick: true, Seed: 42, Parallel: 4}))
	if !bytes.Equal(a, par) {
		t.Fatalf("parallel run diverged from serial:\n%s\n%s", a, par)
	}
}

func TestParallelMatchesSerialAcrossDrivers(t *testing.T) {
	// The cheaper drivers, as a cross-check that every porting seam
	// (Map, Cross, Sweep assembly) preserves row order and values.
	serial := Options{Quick: true, Seed: 3}
	parallel := Options{Quick: true, Seed: 3, Parallel: 8}
	if a, b := marshal(t, CorruptFlood(serial)), marshal(t, CorruptFlood(parallel)); !bytes.Equal(a, b) {
		t.Errorf("CorruptFlood diverged:\n%s\n%s", a, b)
	}
	if a, b := marshal(t, IdleThreadLatency(serial)), marshal(t, IdleThreadLatency(parallel)); !bytes.Equal(a, b) {
		t.Errorf("IdleThreadLatency diverged:\n%s\n%s", a, b)
	}
	if a, b := marshal(t, MediaJitter(serial)), marshal(t, MediaJitter(parallel)); !bytes.Equal(a, b) {
		t.Errorf("MediaJitter diverged:\n%s\n%s", a, b)
	}
}

// TestSuiteRerunIdentical runs the whole quick suite twice in one
// process and requires byte-identical JSON. The second run executes with
// every recycling mechanism warm from the first (the engines' event free
// lists, the mbuf pools' struct and buffer free lists), so any leak of
// recycled state into fresh worlds — a stale event firing, a dirty
// buffer — shows up as a diff here.
func TestSuiteRerunIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick suite twice; skipped in -short")
	}
	run := func() []byte {
		suite := results.NewSuite(1, true)
		for _, name := range SuiteNames() {
			e, err := RunExperiment(name, Options{Quick: true, Seed: 1, Parallel: 8})
			if err != nil {
				t.Fatal(err)
			}
			suite.Add(e)
		}
		var buf bytes.Buffer
		if err := suite.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("quick suite diverged between first and second in-process run (%d vs %d bytes)", len(a), len(b))
	}
}

// TestSuiteParallelismInvariant is the determinism contract behind
// `lrpbench all` and `lrpbench check`: RunSuite over every registry
// experiment at -parallel 1 (strictly sequential drivers) and at
// -parallel 8 (all drivers concurrent, every simulation world drawn
// from one shared pool) must produce byte-identical JSON. This is the
// cross-driver scheduler's proof obligation — canonical assembly order
// plus private deterministic worlds — at quick scale. Validate also
// holds each registry row to filling the payload field its name keys.
func TestSuiteParallelismInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("every quick experiment twice; skipped in -short")
	}
	if race.Enabled {
		t.Skip("every quick experiment twice; too slow under the race detector (concurrency is covered by TestParallelMatchesSerialAcrossDrivers)")
	}
	encode := func(parallel int) []byte {
		suite, err := RunSuite(Options{Quick: true, Seed: 1, Parallel: parallel}, Names()...)
		if err != nil {
			t.Fatal(err)
		}
		if err := suite.Validate(); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := suite.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := encode(1), encode(8)
	if !bytes.Equal(a, b) {
		t.Fatalf("suite JSON diverged between -parallel 1 and -parallel 8 (%d vs %d bytes)", len(a), len(b))
	}
}

// TestSuiteCallbacks checks the ExpStart/ExpDone plumbing RunSuite
// offers the CLI's -v timing output: one start and one done per
// experiment, under concurrent drivers.
func TestSuiteCallbacks(t *testing.T) {
	var mu sync.Mutex
	started := map[string]int{}
	finished := map[string]int{}
	names := []string{"table1", "media"}
	opt := Options{Quick: true, Seed: 1, Parallel: 4,
		ExpStart: func(name string) { mu.Lock(); started[name]++; mu.Unlock() },
		ExpDone:  func(name string) { mu.Lock(); finished[name]++; mu.Unlock() },
	}
	if _, err := RunSuite(opt, names...); err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if started[name] != 1 || finished[name] != 1 {
			t.Errorf("%s: started %d finished %d, want 1/1", name, started[name], finished[name])
		}
	}
}

// progressRecorder is a concurrency-safe Progress sink.
type progressRecorder struct {
	mu    sync.Mutex
	lines []string
}

func (p *progressRecorder) cb(s string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.lines = append(p.lines, s)
}

func (p *progressRecorder) count(prefix string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, l := range p.lines {
		if strings.HasPrefix(l, prefix) {
			n++
		}
	}
	return n
}

func TestProgressCallbacksSerial(t *testing.T) {
	rec := &progressRecorder{}
	rows := CorruptFlood(Options{Quick: true, Seed: 1, Progress: rec.cb})
	if got := rec.count("ablation corrupt-flood"); got != len(rows) {
		t.Errorf("want one progress line per row (%d), got %d: %q", len(rows), got, rec.lines)
	}
	rec = &progressRecorder{}
	IdleThreadLatency(Options{Quick: true, Seed: 1, Progress: rec.cb})
	if got := rec.count("ablation idle-thread"); got != 1 {
		t.Errorf("want 1 idle-thread summary line, got %d: %q", got, rec.lines)
	}
}

func TestProgressCallbacksParallel(t *testing.T) {
	rec := &progressRecorder{}
	rows := MediaJitter(Options{Quick: true, Seed: 1, Parallel: 4, Progress: rec.cb})
	if got := rec.count("media:"); got != len(rows) {
		t.Errorf("want %d media progress lines, got %d: %q", len(rows), got, rec.lines)
	}
}

func TestProgressNilIsSafe(t *testing.T) {
	// Options with no Progress must run without touching a nil func.
	opt := Options{Quick: true, Seed: 1, Parallel: 2}
	opt.progress("dropped on the floor")
	if rows := IdleThreadLatency(opt); len(rows) != 2 {
		t.Fatalf("unexpected rows %v", rows)
	}
}
