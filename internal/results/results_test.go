package results

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// sampleSuite builds a suite with one populated entry per experiment,
// exercising every row type and every field.
func sampleSuite() *Suite {
	s := NewSuite(42, true)
	s.Add(Experiment{Name: "table1", Table1: []Table1Row{
		{System: "4.4 BSD", RTTMicros: 348.25, UDPMbps: 78.8, TCPMbps: 71.7},
		{System: "LRP (Soft Demux)", RTTMicros: 314, UDPMbps: 80.4, TCPMbps: 71.1},
	}})
	s.Add(Experiment{Name: "fig3", Fig3: []Fig3Series{
		{System: "NI-LRP", Points: []Fig3Point{{Offered: 2000, Delivered: 2006.5}, {Offered: 20000, Delivered: 10753}}},
	}})
	s.Add(Experiment{Name: "mlfrr", MLFRR: []MLFRRRow{
		{System: "SOFT-LRP", MLFRR: 8250, Peak: 9072.25},
	}})
	s.Add(Experiment{Name: "fig4", Fig4: []Fig4Series{
		{System: "4.4 BSD", Points: []Fig4Point{{BgRate: 4000, RTTMicros: 812.5, Lost: 3}}},
	}})
	s.Add(Experiment{Name: "table2", Table2: []Table2Row{
		{Workload: "Fast", System: "NI-LRP", WorkerElapsed: 41.6, ServerRPCRate: 1814, WorkerShare: 0.355},
	}})
	s.Add(Experiment{Name: "fig5", Fig5: []Fig5Series{
		{System: "SOFT-LRP", Points: []Fig5Point{{SYNRate: 20000, HTTPPerSec: 52.5}}},
	}})
	s.Add(Experiment{Name: "ablations", Ablations: []AblationRow{
		{Experiment: "idle-thread", Variant: "enabled", Metric: "recv_call_µs", Value: 56},
	}})
	s.Add(Experiment{Name: "media", Media: []MediaRow{
		{System: "NI-LRP", BgRate: 6000, MeanJitterUs: 5.5, P99JitterUs: 8, FramesLost: 2},
	}})
	return s
}

func TestSuiteRoundTrip(t *testing.T) {
	s := sampleSuite()
	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, got) {
		t.Fatalf("round trip diverged:\nin:  %+v\nout: %+v", s, got)
	}
	// Every row type must survive the trip: the sample populates each
	// experiment, so DeepEqual above covers all of them; spot-check a
	// couple of deep fields to guard against tag typos that DeepEqual
	// alone would catch only via the sample.
	if got.Find("fig4").Fig4[0].Points[0].Lost != 3 {
		t.Error("fig4 Lost field lost in translation")
	}
	if got.Find("media").Media[0].P99JitterUs != 8 {
		t.Error("media P99 field lost in translation")
	}
}

func TestEncodeDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := sampleSuite().Encode(&a); err != nil {
		t.Fatal(err)
	}
	if err := sampleSuite().Encode(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two encodings of the same suite differ")
	}
	if !bytes.HasSuffix(a.Bytes(), []byte("\n")) {
		t.Error("encoding should end with a newline")
	}
}

func TestDecodeRejectsWrongSchema(t *testing.T) {
	s := sampleSuite()
	s.Schema = SchemaVersion + 1
	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(&buf); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("want schema error, got %v", err)
	}
}

func TestDecodeRejectsMismatchedPayload(t *testing.T) {
	s := NewSuite(1, false)
	// Payload filed under the wrong name.
	s.Add(Experiment{Name: "fig3", Table1: []Table1Row{{System: "x", RTTMicros: 1, UDPMbps: 1, TCPMbps: 1}}})
	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(&buf); err == nil {
		t.Fatal("mismatched payload should fail validation")
	}
	var buf2 bytes.Buffer
	s2 := NewSuite(1, false)
	s2.Add(Experiment{Name: "bogus"})
	if err := s2.Encode(&buf2); err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(&buf2); err == nil {
		t.Fatal("unknown experiment name should fail validation")
	}
}

func TestDecodeRejectsStrayPayload(t *testing.T) {
	s := NewSuite(1, false)
	// Rows under its own name plus rows under another experiment's key.
	s.Add(Experiment{Name: "fig3",
		Fig3:   []Fig3Series{{System: "x", Points: []Fig3Point{{Offered: 1, Delivered: 1}}}},
		Table1: []Table1Row{{System: "x", RTTMicros: 1, UDPMbps: 1, TCPMbps: 1}},
	})
	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(&buf); err == nil {
		t.Fatal("an entry carrying a second experiment's rows should fail validation")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage input should fail")
	}
	if _, err := Decode(strings.NewReader(`{"schema":1,"tool":"other"}`)); err == nil {
		t.Fatal("foreign tool tag should fail")
	}
}

func TestFind(t *testing.T) {
	s := sampleSuite()
	if s.Find("table2") == nil || s.Find("table2").Name != "table2" {
		t.Error("Find failed on present experiment")
	}
	if s.Find("nope") != nil {
		t.Error("Find invented an experiment")
	}
}
