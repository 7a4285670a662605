package hotalloc_test

import (
	"testing"

	"lrp/internal/analysis/analysistest"
	"lrp/internal/analysis/hotalloc"
)

// TestHotPathAllocations drives every allocation rule and every escape:
// the zero-fill append idiom, parameter-buffer appends, panic coldness,
// //lrp:coldalloc waivers, and unannotated functions staying unchecked.
func TestHotPathAllocations(t *testing.T) {
	analysistest.Run(t, hotalloc.Analyzer, "testdata/hotfix", "lrp/internal/core")
}

// TestTransitiveAllocations drives the interprocedural sweep across a
// three-package chain: the leaf's make is reported with the full
// root -> mid -> leaf chain, a //lrp:coldalloc doc comment stops
// traversal at any depth, a nested //lrp:hotpath function is its own
// root (no chain), the append deletion idiom is recognized as
// non-allocating, and panic-only allocations stay cold. The root also
// calls a method of a generic type and a generic function in a fourth
// package, whose allocations are reported through the instantiations.
func TestTransitiveAllocations(t *testing.T) {
	analysistest.RunProgram(t, hotalloc.Analyzer,
		analysistest.Fixture{Dir: "testdata/hotdeep", Path: "lrp/internal/hotdeep"},
		analysistest.Fixture{Dir: "testdata/hotgen", Path: "lrp/internal/hotgen"},
		analysistest.Fixture{Dir: "testdata/hotmid", Path: "lrp/internal/hotmid"},
		analysistest.Fixture{Dir: "testdata/hotroot", Path: "lrp/internal/hotroot"},
	)
}
