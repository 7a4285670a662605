package lrp_test

// Guards the checked-in archives, derived from exp.Registry:
// results/lrpbench_full.{txt,json} holds the canonical suite and
// results/lrpbench_NAME.{txt,json} each experiment outside it. The JSON
// must decode under the current schema, carry exactly its archive's
// experiments in registry order and satisfy every shape assertion, and
// — because results are a pure function of config and seed — an
// in-process re-run must reproduce both files byte-for-byte.
// Regenerate with
//
//	go run ./cmd/lrpbench -out results/lrpbench_full.json all > results/lrpbench_full.txt
//	go run ./cmd/lrpbench -out results/lrpbench_NAME.json NAME > results/lrpbench_NAME.txt
//
// whenever a change legitimately moves the numbers.

import (
	"bytes"
	"os"
	"slices"
	"testing"

	"lrp/internal/exp"
	"lrp/internal/race"
	"lrp/internal/render"
	"lrp/internal/results"
)

// archive is one checked-in pair: its path without the .json/.txt
// extension and the experiments it holds.
type archive struct {
	path  string
	names []string
}

// archives derives every checked-in archive from the registry: the
// canonical suite's, then one per experiment outside it.
func archives() []archive {
	out := []archive{{"results/lrpbench_full", exp.SuiteNames()}}
	for _, r := range exp.Registry {
		if !r.Suite {
			out = append(out, archive{"results/lrpbench_" + r.Name, []string{r.Name}})
		}
	}
	return out
}

// loadArchive decodes one checked-in suite.
func loadArchive(t *testing.T, path string) *results.Suite {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s, err := results.Decode(f)
	if err != nil {
		t.Fatalf("%s no longer decodes: %v", path, err)
	}
	if s.Quick {
		t.Errorf("%s was generated with -quick; regenerate at full length", path)
	}
	return s
}

func TestArchives(t *testing.T) {
	for _, a := range archives() {
		t.Run(a.path, func(t *testing.T) {
			s := loadArchive(t, a.path+".json")
			var got []string
			for _, e := range s.Experiments {
				got = append(got, e.Name)
			}
			if !slices.Equal(got, a.names) {
				t.Errorf("%s.json carries %v, want %v", a.path, got, a.names)
			}
			for _, v := range exp.Check(s, a.names...) {
				t.Errorf("%s.json violates a paper-shape assertion: %s", a.path, v)
			}
		})
	}
}

// TestArchivesByteIdentical reruns each archive's experiments at full
// length in-process and compares the rendered text and encoded JSON
// against the checked-in pair, byte for byte. This is the determinism
// contract at its strongest: any stray source of nondeterminism or any
// unintended change to simulation behavior — however small — shows up
// as a diff against an archive produced by a different process on a
// different day.
func TestArchivesByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full-length re-runs; skipped in -short")
	}
	if race.Enabled {
		t.Skip("full-length re-runs; too slow under the race detector")
	}
	for _, a := range archives() {
		t.Run(a.path, func(t *testing.T) {
			wantJSON, err := os.ReadFile(a.path + ".json")
			if err != nil {
				t.Fatal(err)
			}
			wantTxt, err := os.ReadFile(a.path + ".txt")
			if err != nil {
				t.Fatal(err)
			}
			suite, err := exp.RunSuite(exp.Options{Seed: 1, Parallel: 8}, a.names...)
			if err != nil {
				t.Fatal(err)
			}
			var gotJSON, gotTxt bytes.Buffer
			if err := suite.Encode(&gotJSON); err != nil {
				t.Fatal(err)
			}
			exp.Render(&gotTxt, suite, render.Options{})
			if !bytes.Equal(gotJSON.Bytes(), wantJSON) {
				t.Errorf("re-run JSON differs from %s.json (%d vs %d bytes); if the change is intended, regenerate the archives",
					a.path, gotJSON.Len(), len(wantJSON))
			}
			if !bytes.Equal(gotTxt.Bytes(), wantTxt) {
				t.Errorf("re-run text differs from %s.txt (%d vs %d bytes); if the change is intended, regenerate the archives",
					a.path, gotTxt.Len(), len(wantTxt))
			}
		})
	}
}
