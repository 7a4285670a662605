package exp

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"lrp/internal/results"
)

// TestRegistryCoversSchema pairs the registry with the archive schema:
// every payload field of results.Experiment has a registry row under its
// JSON key, and the rows come in field order, so an experiment added to
// one but not the other fails here.
func TestRegistryCoversSchema(t *testing.T) {
	var keys []string
	typ := reflect.TypeOf(results.Experiment{})
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); f.Type.Kind() == reflect.Slice {
			keys = append(keys, strings.TrimSuffix(f.Tag.Get("json"), ",omitempty"))
		}
	}
	if !slices.Equal(keys, Names()) {
		t.Fatalf("payload keys %v, registry names %v", keys, Names())
	}
}

func TestCheckReportsMissing(t *testing.T) {
	vs := Check(results.NewSuite(1, true), Names()...)
	var got []string
	for _, v := range vs {
		if v.Check != "present" {
			t.Fatalf("empty suite: unexpected violation %s", v)
		}
		got = append(got, v.Experiment)
	}
	if !slices.Equal(got, Names()) {
		t.Fatalf("missing-experiment violations for %v, want one per name in order %v", got, Names())
	}
}
