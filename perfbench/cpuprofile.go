package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// modulePrefix is the import-path prefix of the program's modules.
const modulePrefix = "repro/internal/"

// runtimeModule collects CPU samples with no frame in any module: the Go
// runtime's own work (GC, scheduler, malloc reached from outside) and
// the benchmark driver.
const runtimeModule = "runtime"

// moduleCPU decodes a CPU profile as written by runtime/pprof and charges
// each sample's CPU time to the innermost stack frame that belongs to a
// module under repro/internal/ (the first path element after it:
// repro/internal/mgmt/storeindex counts as mgmt). Samples with no such
// frame go to runtime. It returns nanoseconds per module.
func moduleCPU(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	// A CPU profile's sample values are [count, nanoseconds].
	out := make(map[string]int64)
	for _, s := range p.samples {
		if len(s.values) != 2 {
			return nil, fmt.Errorf("cpu profile: sample has %d values, want 2", len(s.values))
		}
		out[p.chargeTo(s.locations)] += s.values[1]
	}
	return out, nil
}

// profile is the subset of the pprof protobuf the charging rule needs.
type profile struct {
	samples   []sample
	locations map[uint64][]uint64 // location id → function ids, innermost first
	functions map[uint64]int64    // function id → name string index
	strings   []string
}

type sample struct {
	locations []uint64 // leaf first
	values    []int64
}

// chargeTo returns the module the stack's innermost module frame belongs
// to.
func (p *profile) chargeTo(stack []uint64) string {
	for _, loc := range stack {
		for _, fn := range p.locations[loc] {
			idx := p.functions[fn]
			if idx < 0 || int(idx) >= len(p.strings) {
				continue
			}
			name := p.strings[idx]
			if rest, ok := strings.CutPrefix(name, modulePrefix); ok {
				if i := strings.IndexAny(rest, "/."); i > 0 {
					return rest[:i]
				}
				return rest
			}
		}
	}
	return runtimeModule
}

// parseProfile decodes the top-level perftools.profiles.Profile message.
func parseProfile(b []byte) (*profile, error) {
	p := &profile{locations: make(map[uint64][]uint64), functions: make(map[uint64]int64)}
	err := eachField(b, func(field int, wire int, v uint64, data []byte) error {
		switch field {
		case 2: // sample
			var s sample
			if err := eachField(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case 1:
					return appendVarints(&s.locations, w, v, d)
				case 2:
					var vals []uint64
					if err := appendVarints(&vals, w, v, d); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			}); err != nil {
				return err
			}
			p.samples = append(p.samples, s)
		case 4: // location{id, mapping_id, address, line{function_id, line}}
			var id uint64
			var fns []uint64
			if err := eachField(data, func(f, _ int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return eachField(d, func(lf, _ int, lv uint64, _ []byte) error {
						if lf == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			p.locations[id] = fns
		case 5: // function{id, name, system_name, filename, start_line}
			var id uint64
			var name int64
			if err := eachField(data, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			p.functions[id] = name
		case 6: // string_table
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	return p, err
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst *[]uint64, wire int, v uint64, data []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := varint(data)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}

// eachField walks the fields of one protobuf message. Varint fields pass
// their value in v; length-delimited fields pass their bytes in data.
func eachField(b []byte, fn func(field, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := varint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = varint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := varint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// varint decodes one base-128 varint, returning the value and the bytes
// used (0 when b is truncated).
func varint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
