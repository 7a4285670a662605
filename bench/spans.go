package main

import (
	"encoding/json"
	"os"
	"time"
)

// recorder keeps spans in memory until the benchmark writes them out as
// Chrome trace-event JSON (chrome://tracing, Perfetto). All spans sit on
// one thread, so a viewer nests them by time: world > setup > the layer
// calls of setup, then each RunFor, then Shutdown.
type recorder struct {
	epoch time.Time
	spans []traceEvent
}

// traceEvent is one complete ("X") event of the trace-event format; times
// are µs since the recorder's epoch.
type traceEvent struct {
	Name string    `json:"name"`
	Ph   string    `json:"ph"`
	Ts   float64   `json:"ts"`
	Dur  float64   `json:"dur"`
	Pid  int       `json:"pid"`
	Tid  int       `json:"tid"`
	Args spanWorld `json:"args"`
}

type spanWorld struct {
	World string `json:"world"`
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) add(name, world string, start time.Time, d time.Duration) {
	r.spans = append(r.spans, traceEvent{
		Name: name,
		Ph:   "X",
		Ts:   float64(start.Sub(r.epoch).Nanoseconds()) / 1e3,
		Dur:  float64(d.Nanoseconds()) / 1e3,
		Pid:  1,
		Tid:  1,
		Args: spanWorld{World: world},
	})
}

// write saves the spans as {"traceEvents": [...]}.
func (r *recorder) write(path string) error {
	b, err := json.Marshal(struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}{r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
