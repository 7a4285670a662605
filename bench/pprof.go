package main

import (
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"strings"
)

// layerSelfPct reads a CPU profile written by runtime/pprof and returns
// each layer's share of the flat (self) samples, in percent. A sample
// belongs to the package of its innermost frame; lrp/internal/<layer>
// counts as <layer> and the Go runtime as "gc". The reader decodes only
// the profile.proto fields it needs, so no profile library is required.
func layerSelfPct(path string) (map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p, err := parseProfile(data)
	if err != nil {
		return nil, err
	}
	var total int64
	byLayer := map[string]int64{}
	for _, s := range p.samples {
		total += s.value
		name := p.strings[p.funcName[p.locFunc[s.leaf]]]
		byLayer[layerOf(name)] += s.value
	}
	out := map[string]float64{}
	if total == 0 {
		return out, nil
	}
	for l, v := range byLayer {
		out[l] = 100 * float64(v) / float64(total)
	}
	return out, nil
}

// layerOf maps a Go symbol such as "lrp/internal/sim.(*Engine).Step" or
// "runtime.mallocgc" to its layer name.
func layerOf(sym string) string {
	if i := strings.IndexAny(sym, "(["); i >= 0 {
		sym = sym[:i] // generic shapes and receivers may hold '/' and '.'
	}
	pkg := sym
	slash := strings.LastIndexByte(pkg, '/')
	if i := strings.IndexByte(pkg[slash+1:], '.'); i >= 0 {
		pkg = pkg[:slash+1+i]
	}
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "gc"
	case strings.HasPrefix(pkg, "lrp/internal/"):
		return strings.TrimPrefix(pkg, "lrp/internal/")
	}
	return "other"
}

type profSample struct {
	leaf  uint64 // location id of the innermost frame
	value int64  // first sample value (the sample count of a CPU profile)
}

type profile struct {
	samples  []profSample
	locFunc  map[uint64]uint64 // location id -> innermost function id
	funcName map[uint64]uint64 // function id -> string table index
	strings  []string
}

var errProto = errors.New("pprof: malformed profile")

// profile.proto field numbers used below.
const (
	profSampleField   = 2
	profLocationField = 4
	profFunctionField = 5
	profStringField   = 6
)

func parseProfile(b []byte) (*profile, error) {
	p := &profile{locFunc: map[uint64]uint64{}, funcName: map[uint64]uint64{}}
	err := fields(b, func(num int, v uint64, msg []byte) error {
		switch num {
		case profSampleField: // Sample{1: location_id, 2: value}
			var s profSample
			var haveLoc, haveVal bool
			err := fields(msg, func(num int, v uint64, packed []byte) error {
				switch {
				case num == 1 && !haveLoc:
					s.leaf, haveLoc = first(v, packed), true
				case num == 2 && !haveVal:
					s.value, haveVal = int64(first(v, packed)), true
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.samples = append(p.samples, s)
		case profLocationField: // Location{1: id, 4: Line{1: function_id}}
			var id, fn uint64
			var haveLine bool
			err := fields(msg, func(num int, v uint64, line []byte) error {
				switch {
				case num == 1:
					id = v
				case num == 4 && !haveLine: // the first line is the innermost inlined frame
					haveLine = true
					return fields(line, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locFunc[id] = fn
		case profFunctionField: // Function{1: id, 2: name}
			var id, name uint64
			err := fields(msg, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.funcName[id] = name
		case profStringField:
			p.strings = append(p.strings, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, s := range p.samples {
		if p.funcName[p.locFunc[s.leaf]] >= uint64(len(p.strings)) {
			return nil, errProto
		}
	}
	return p, nil
}

// first returns the first element of a repeated varint field, which the
// encoder writes either unpacked (v) or packed (b).
func first(v uint64, b []byte) uint64 {
	if b == nil {
		return v
	}
	x, _ := binary.Uvarint(b)
	return x
}

// fields walks the fields of one protobuf message, passing each field's
// number with its varint value or, for length-delimited fields, its bytes.
func fields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num := int(key >> 3)
		var v uint64
		var data []byte
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errProto
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return errProto
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}
