package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file splits a runtime/pprof CPU profile by the module of each
// sample's leaf frame, with a minimal decoder for the profile.proto
// fields the split needs (the standard library has no protobuf reader).

// moduleOf maps a symbolised function name to its cpu_frac group.
func moduleOf(fn string) string {
	// Generic instantiations carry type arguments in brackets, which may
	// themselves contain package paths.
	if i := strings.IndexByte(fn, '['); i >= 0 {
		if j := strings.LastIndexByte(fn, ']'); j > i {
			fn = fn[:i] + fn[j+1:]
		}
	}
	pkg := fn
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/internal/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case strings.HasPrefix(pkg, "repro/internal/"):
		name := strings.TrimPrefix(pkg, "repro/internal/")
		for _, m := range cpuModules {
			if m == name {
				return name
			}
		}
	}
	return "other"
}

// cpuSplit accumulates CPU time per module across profiles.
type cpuSplit struct {
	ns    map[string]int64
	total int64
}

func newCPUSplit() *cpuSplit { return &cpuSplit{ns: make(map[string]int64)} }

func (c *cpuSplit) frac(module string) float64 {
	if c.total == 0 {
		return 0
	}
	return float64(c.ns[module]) / float64(c.total)
}

// add decodes one gzipped CPU profile and adds each sample's CPU time to
// the module of its leaf frame.
func (c *cpuSplit) add(profile []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		leaf   uint64
		values []int64
	}
	var (
		samples  []sample
		types    []int64 // string index of each sample value's type
		strs     []string
		locFunc  = make(map[uint64]uint64)
		funcName = make(map[uint64]int64)
	)
	err = fields(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var t int64
			if err := fields(b, func(n, w int, v uint64, _ []byte) error {
				if n == 1 {
					t = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			types = append(types, t)
		case 2: // sample
			var locs []uint64
			var vals []int64
			if err := fields(b, func(n, w int, v uint64, b []byte) error {
				switch n {
				case 1:
					return appendVarints(w, v, b, func(x uint64) { locs = append(locs, x) })
				case 2:
					return appendVarints(w, v, b, func(x uint64) { vals = append(vals, int64(x)) })
				}
				return nil
			}); err != nil {
				return err
			}
			if len(locs) == 0 {
				return nil
			}
			samples = append(samples, sample{leaf: locs[0], values: vals})
		case 4: // location
			var id, fn uint64
			firstLine := true
			if err := fields(b, func(n, w int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					// The first line is the innermost frame of an
					// inlined chain: the leaf.
					if !firstLine {
						return nil
					}
					firstLine = false
					return fields(b, func(n, w int, v uint64, _ []byte) error {
						if n == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFunc[id] = fn
		case 5: // function
			var id uint64
			var name int64
			if err := fields(b, func(n, w int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return err
	}
	cpu := -1 // index of the cpu/nanoseconds value
	for i, t := range types {
		if t >= 0 && t < int64(len(strs)) && strs[t] == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return errors.New("cpu profile: no cpu sample type")
	}
	for _, s := range samples {
		if cpu >= len(s.values) {
			return errors.New("cpu profile: sample lacks its cpu value")
		}
		idx, ok := funcName[locFunc[s.leaf]]
		name := "?"
		if ok && idx >= 0 && idx < int64(len(strs)) {
			name = strs[idx]
		}
		m := moduleOf(name)
		c.ns[m] += s.values[cpu]
		c.total += s.values[cpu]
	}
	return nil
}

// fields walks the top-level fields of a protobuf message. For varint
// fields v holds the value; for length-delimited ones b holds the bytes.
func fields(buf []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errors.New("cpu profile: bad field key")
		}
		buf = buf[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(buf)
			if n <= 0 {
				return errors.New("cpu profile: bad varint")
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errors.New("cpu profile: short fixed64")
			}
			buf = buf[8:]
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errors.New("cpu profile: bad length")
			}
			b = buf[n : n+int(l)]
			buf = buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errors.New("cpu profile: short fixed32")
			}
			buf = buf[4:]
		default:
			return fmt.Errorf("cpu profile: wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints handles a repeated varint field in either encoding:
// one value per field, or packed into one length-delimited field.
func appendVarints(wire int, v uint64, b []byte, add func(uint64)) error {
	if wire == 0 {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("cpu profile: bad packed varint")
		}
		add(x)
		b = b[n:]
	}
	return nil
}
