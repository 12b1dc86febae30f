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

// layers are the specsync/internal packages the CPU profile is split into.
// A sample whose innermost internal frame lies in any other package counts
// as "other", like a sample with no internal frame at all.
var layers = []string{
	"model", "sparse", "tensor", "wire", "ps", "optimizer", "core", "worker",
	"des", "obs", "transport", "live", "cluster", "msg", "metrics", "trace", "codec",
}

const internalPrefix = "specsync/internal/"

// gcFrames mark a stack as garbage-collector work: the background mark and
// sweep workers, the scavenger, and mark assists charged to allocating
// goroutines.
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge", "runtime.gcAssistAlloc",
}

// stackSample is one CPU-profile stack, leaf first, with its sample count.
type stackSample struct {
	stack []string
	count int64
}

// layerOf attributes a stack to a layer: "gc" when any frame is GC work,
// else the package of the innermost specsync/internal frame if it is a
// listed layer, else "other".
func layerOf(stack []string) string {
	for _, fn := range stack {
		for _, g := range gcFrames {
			if strings.HasPrefix(fn, g) {
				return "gc"
			}
		}
	}
	for _, fn := range stack {
		rest, ok := strings.CutPrefix(fn, internalPrefix)
		if !ok {
			continue
		}
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			rest = rest[:i]
		}
		for _, l := range layers {
			if l == rest {
				return l
			}
		}
		return "other"
	}
	return "other"
}

// nodeTime tallies the samples spent inside each kind of node, callees
// included, as a handler decorator would time it: "ps" for stacks through a
// ps frame, "core" through a core frame, and "worker" through a worker frame
// but not a model frame, since the worker's own time excludes the model's.
func nodeTime(samples []stackSample, into map[string]int64) {
	for _, s := range samples {
		var ps, core, worker, model bool
		for _, fn := range s.stack {
			ps = ps || strings.HasPrefix(fn, internalPrefix+"ps.")
			core = core || strings.HasPrefix(fn, internalPrefix+"core.")
			worker = worker || strings.HasPrefix(fn, internalPrefix+"worker.")
			model = model || strings.HasPrefix(fn, internalPrefix+"model.")
		}
		switch {
		case ps:
			into["ps"] += s.count
		case core:
			into["core"] += s.count
		case worker && !model:
			into["worker"] += s.count
		}
	}
}

// attribute adds each sample's count to its layer's tally.
func attribute(samples []stackSample, into map[string]int64) {
	for _, s := range samples {
		into[layerOf(s.stack)] += s.count
	}
}

var errProto = errors.New("perfbench: malformed profile")

// walkProto calls fn for each field of the protobuf message b. Varint fields
// arrive in v with data nil; length-delimited fields arrive in data.
// Fixed-width fields are skipped (the CPU profile fields read here have none).
func walkProto(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		field := int(key >> 3)
		switch key & 7 {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errProto
			}
			if err := fn(field, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's value(s): either the single
// unpacked value v, or every varint in the packed payload data.
func appendVarints(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return dst, errProto
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst, nil
}

// parseCPUProfile decodes a gzipped pprof CPU profile, as written by
// runtime/pprof, into its stacks with function names resolved. Inlined
// frames are expanded innermost first, matching the stack order.
func parseCPUProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("perfbench: profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("perfbench: profile: %w", err)
	}
	type rawSample struct {
		locs  []uint64
		count int64
	}
	var (
		strs    []string
		samples []rawSample
		fnName  = map[uint64]uint64{}   // function id -> string index
		locFns  = map[uint64][]uint64{} // location id -> function ids, innermost first
	)
	err = walkProto(raw, func(field int, _ uint64, data []byte) error {
		switch field {
		case 2: // Sample
			var s rawSample
			var vals []uint64
			err := walkProto(data, func(f int, v uint64, d []byte) error {
				var err error
				switch f {
				case 1:
					s.locs, err = appendVarints(s.locs, v, d)
				case 2:
					vals, err = appendVarints(vals, v, d)
				}
				return err
			})
			if err != nil {
				return err
			}
			if len(vals) > 0 {
				s.count = int64(vals[0])
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			err := walkProto(data, func(f int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return walkProto(d, func(lf int, lv uint64, _ []byte) error {
						if lf == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFns[id] = fns
		case 5: // Function
			var id, name uint64
			err := walkProto(data, func(f int, v uint64, _ []byte) error {
				switch f {
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
			fnName[id] = name
		case 6: // string_table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		var stack []string
		for _, loc := range s.locs {
			for _, fid := range locFns[loc] {
				if si, ok := fnName[fid]; ok && si < uint64(len(strs)) {
					stack = append(stack, strs[si])
				}
			}
		}
		out = append(out, stackSample{stack: stack, count: s.count})
	}
	return out, nil
}
