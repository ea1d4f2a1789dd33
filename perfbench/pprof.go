package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
)

// cpuModules are the repository's modules the cpu.* metrics report, in the
// order they print. Every sample lands in exactly one of them, "gc" or
// "other", so the shares sum to 1.
var cpuModules = []string{
	"cache", "workload", "core", "tcc", "seqpro", "bulksc", "dir", "mem",
	"mesh", "event", "proc", "chunk", "sig", "bitset", "stats", "system",
	"root", "gc", "other",
}

// gcWorkers are the runtime's background GC goroutines' entry frames.
var gcWorkers = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge"}

// moduleOf maps a profiled function name to the repository module that owns
// it: "scalablebulk/internal/<module>.…" → module, "scalablebulk.…" → root.
// The benchmark's own frames are not a module.
func moduleOf(fn string) (string, bool) {
	if strings.HasPrefix(fn, "scalablebulk/perfbench") {
		return "", false
	}
	if rest, ok := strings.CutPrefix(fn, "scalablebulk/internal/"); ok {
		if i := strings.IndexAny(rest, "./"); i > 0 {
			return rest[:i], true
		}
	}
	if strings.HasPrefix(fn, "scalablebulk.") {
		return "root", true
	}
	return "", false
}

// attribute names the module a sampled stack (innermost frame first) counts
// to: the innermost repository frame, so a runtime map or allocation call
// counts to its caller; else "gc" for a background GC worker; else "other".
// A repository module not in cpuModules also counts as "other".
func attribute(stack []string) string {
	for _, fn := range stack {
		if mod, ok := moduleOf(fn); ok {
			if slices.Contains(cpuModules, mod) {
				return mod
			}
			return "other"
		}
	}
	for _, fn := range stack {
		if slices.Contains(gcWorkers, fn) {
			return "gc"
		}
	}
	return "other"
}

// cpuShares decodes a gzipped runtime/pprof CPU profile and returns each
// cpuModules entry's share of the sampled CPU time.
func cpuShares(gz []byte) (map[string]float64, error) {
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
	byMod := map[string]float64{}
	var total float64
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		var stack []string
		for _, loc := range s.locs {
			for _, fid := range p.locFuncs[loc] {
				if n := p.funcName[fid]; n < uint64(len(p.strs)) {
					stack = append(stack, p.strs[n])
				}
			}
		}
		v := float64(s.values[len(s.values)-1]) // cpu nanoseconds
		byMod[attribute(stack)] += v
		total += v
	}
	shares := make(map[string]float64, len(cpuModules))
	for _, m := range cpuModules {
		if total > 0 {
			shares[m] = byMod[m] / total
		} else {
			shares[m] = 0
		}
	}
	return shares, nil
}

// profile is the part of profile.proto (github.com/google/pprof) that
// attribution needs.
type profile struct {
	samples  []sample
	locFuncs map[uint64][]uint64 // location id → function ids, innermost first
	funcName map[uint64]uint64   // function id → string table index
	strs     []string
}

type sample struct {
	locs   []uint64 // innermost first
	values []uint64
}

var errProto = errors.New("malformed protobuf")

// fields calls fn for each top-level field of a protobuf message; data is
// set for length-delimited fields, v for the others.
func fields(b []byte, fn func(field int, v uint64, data []byte, delimited bool) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		var (
			v    uint64
			data []byte
		)
		switch key & 7 {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
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
		if err := fn(int(key>>3), v, data, key&7 == 2); err != nil {
			return err
		}
	}
	return nil
}

// appendNums appends a repeated integer field, packed or not.
func appendNums(dst []uint64, v uint64, data []byte, delimited bool) ([]uint64, error) {
	if !delimited {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, errProto
		}
		dst, data = append(dst, x), data[n:]
	}
	return dst, nil
}

func parseProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]uint64{}}
	err := fields(b, func(field int, _ uint64, data []byte, delimited bool) error {
		if !delimited {
			return nil
		}
		switch field {
		case 2: // Sample
			var s sample
			err := fields(data, func(f int, v uint64, d []byte, del bool) (err error) {
				switch f {
				case 1:
					s.locs, err = appendNums(s.locs, v, d, del)
				case 2:
					s.values, err = appendNums(s.values, v, d, del)
				}
				return err
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // Location
			var id uint64
			var funcs []uint64
			err := fields(data, func(f int, v uint64, d []byte, del bool) error {
				switch {
				case f == 1:
					id = v
				case f == 4 && del: // Line
					return fields(d, func(lf int, lv uint64, _ []byte, _ bool) error {
						if lf == 1 {
							funcs = append(funcs, lv)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = funcs
			return err
		case 5: // Function
			var id, name uint64
			err := fields(data, func(f int, v uint64, _ []byte, _ bool) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case 6: // string_table
			p.strs = append(p.strs, string(data))
		}
		return nil
	})
	return p, err
}
