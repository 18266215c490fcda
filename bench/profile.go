package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file reads the gzipped profile.proto that runtime/pprof writes —
// just the fields attribution needs — so the benchmark depends on no
// module outside the standard library.

// stackSample is one CPU-profile sample: its call stack as function
// names, innermost frame first, with the sample count and CPU time.
type stackSample struct {
	Stack   []string
	Samples int64
	CPUNs   int64
}

// protoField is one decoded field of a protobuf message.
type protoField struct {
	num  int
	wire int
	u    uint64 // varint value (wire type 0)
	b    []byte // bytes (wire type 2)
}

var errProto = errors.New("bench: malformed profile")

func readVarint(b []byte) (uint64, []byte, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(b) == 0 {
			return 0, nil, errProto
		}
		c := b[0]
		b = b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, b, nil
		}
	}
	return 0, nil, errProto
}

// readFields walks one message, calling fn for each field.
func readFields(b []byte, fn func(f protoField) error) error {
	for len(b) > 0 {
		key, rest, err := readVarint(b)
		if err != nil {
			return err
		}
		b = rest
		f := protoField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			if f.u, b, err = readVarint(b); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			n, rest, err := readVarint(b)
			if err != nil || uint64(len(rest)) < n {
				return errProto
			}
			f.b, b = rest[:n], rest[n:]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}

// readUints decodes a repeated integer field, packed or not.
func readUints(f protoField, dst []uint64) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.u), nil
	}
	b := f.b
	for len(b) > 0 {
		v, rest, err := readVarint(b)
		if err != nil {
			return nil, err
		}
		dst, b = append(dst, v), rest
	}
	return dst, nil
}

// parseProfile decodes a gzipped CPU profile into stack samples.
func parseProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("bench: opening profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("bench: reading profile: %w", err)
	}

	type rawSample struct{ locs, values []uint64 }
	var (
		samples  []rawSample
		strs     []string
		funcName = map[uint64]uint64{}   // function id -> string index
		locFuncs = map[uint64][]uint64{} // location id -> function ids, innermost first
	)
	err = readFields(raw, func(f protoField) error {
		switch f.num {
		case 2: // Sample
			var s rawSample
			err := readFields(f.b, func(g protoField) (err error) {
				switch g.num {
				case 1:
					s.locs, err = readUints(g, s.locs)
				case 2:
					s.values, err = readUints(g, s.values)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // Location; its Line entries run innermost (inlined) first
			var id uint64
			var fns []uint64
			err := readFields(f.b, func(g protoField) error {
				switch g.num {
				case 1:
					id = g.u
				case 4:
					return readFields(g.b, func(h protoField) error {
						if h.num == 1 {
							fns = append(fns, h.u)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := readFields(f.b, func(g protoField) error {
				switch g.num {
				case 1:
					id = g.u
				case 2:
					name = g.u
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(f.b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		// runtime/pprof writes two values per sample: count, then CPU ns.
		if len(s.values) < 2 {
			return nil, errProto
		}
		st := stackSample{Samples: int64(s.values[0]), CPUNs: int64(s.values[1])}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				idx := funcName[fn]
				if idx >= uint64(len(strs)) {
					return nil, errProto
				}
				st.Stack = append(st.Stack, strs[idx])
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// Buckets for samples that touch no layer of the repository.
const (
	layerGC    = "runtime.gc"
	layerOther = "other"
)

// profileLayers are the modules a CPU sample can be charged to: each
// package under cavenet/internal that does simulation or service work,
// named as its import path below internal with "/" written ".". The
// support packages (geometry, rng, plot, trace) are charged to their
// caller.
var profileLayers = []string{
	"ca", "mobility", "sim", "spatial", "phy", "mac",
	"routing.aodv", "routing.olsr", "routing.dymo", "routing.gpsr",
	"netsim", "traffic", "metrics", "fault", "scenario", "scenario.check",
	"exp", "stats", "core", "serve",
}

var isProfileLayer = func() map[string]bool {
	m := make(map[string]bool, len(profileLayers))
	for _, l := range profileLayers {
		m[l] = true
	}
	return m
}()

// funcLayer maps a function name such as
// "cavenet/internal/routing/aodv.(*Router).forward" to its layer.
func funcLayer(fn string) (string, bool) {
	const prefix = "cavenet/internal/"
	if !strings.HasPrefix(fn, prefix) {
		return "", false
	}
	rest := fn[len(prefix):]
	dot := strings.IndexByte(rest, '.')
	if dot < 0 {
		return "", false
	}
	layer := strings.ReplaceAll(rest[:dot], "/", ".")
	return layer, isProfileLayer[layer]
}

// attribute charges a sample to the innermost frame that belongs to a
// layer, so sort, math or runtime.mallocgc called from phy count as phy.
// A stack with no such frame is GC/background work when every frame is
// the runtime's, and "other" (net/http, encoding/json, the benchmark's
// own code) otherwise.
func attribute(stack []string) string {
	for _, fn := range stack {
		if layer, ok := funcLayer(fn); ok {
			return layer
		}
	}
	for _, fn := range stack {
		if !strings.HasPrefix(fn, "runtime.") {
			return layerOther
		}
	}
	return layerGC
}

// layerSeconds attributes every sample and returns CPU seconds per layer.
func layerSeconds(samples []stackSample) map[string]float64 {
	secs := make(map[string]float64)
	for _, s := range samples {
		secs[attribute(s.Stack)] += float64(s.CPUNs) / 1e9
	}
	return secs
}
