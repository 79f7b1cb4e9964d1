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

// sample is one CPU profile sample: its stack, innermost frame first,
// as fully qualified function names, and the CPU time it stands for.
type sample struct {
	stack []string
	ns    int64
}

// Layer names the charging rule produces besides ftsvm/internal
// package names.
const (
	layerAudit        = "audit"
	layerOracle       = "oracle"
	layerRecorder     = "recorder"
	layerGC           = "gc"
	layerUnattributed = "unattributed"
)

// checkFrames charges a sample inclusively: any frame with one of these
// prefixes claims the whole sample for its check, whatever it called.
var checkFrames = []struct{ prefix, layer string }{
	{"ftsvm/internal/svm.(*auditor).", layerAudit},
	{"ftsvm/internal/oracle.", layerOracle},
	{"ftsvm/internal/obs.(*Recorder).", layerRecorder},
}

// handoffRoot is where the scheduler runs after a goroutine parks: the
// switch to the system stack drops the parking goroutine's frames. The
// program's goroutine handoffs are the simulator's process switches
// (sim.Proc), so these samples are charged to sim.
const handoffRoot = "runtime.mcall"

// gcRoots are the runtime's background collector goroutines.
var gcRoots = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge"}

const internalPrefix = "ftsvm/internal/"

// layerOf charges one stack (innermost frame first) to a layer:
//   - the outermost auditor, oracle or recorder frame claims the sample
//     for audit, oracle or recorder, inclusive of everything it called;
//   - a background collector goroutine goes to gc;
//   - otherwise the innermost ftsvm/internal/<pkg> frame names the
//     layer, so runtime frames (memmove, allocation, channel handoff)
//     go to the layer that called them;
//   - a scheduler stack left by a goroutine handoff goes to sim;
//   - a stack with none of these is unattributed, which is where a
//     renamed or new package shows up instead of vanishing.
func layerOf(stack []string) string {
	check := ""
	for _, f := range stack {
		for _, c := range checkFrames {
			if strings.HasPrefix(f, c.prefix) {
				check = c.layer
			}
		}
	}
	if check != "" {
		return check
	}
	for _, f := range stack {
		for _, g := range gcRoots {
			if f == g {
				return layerGC
			}
		}
	}
	for _, f := range stack {
		if rest, ok := strings.CutPrefix(f, internalPrefix); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				return rest[:i]
			}
		}
	}
	if len(stack) > 0 && stack[len(stack)-1] == handoffRoot {
		return "sim"
	}
	return layerUnattributed
}

// chargeLayers sums the samples' CPU time by layer.
func chargeLayers(samples []sample) map[string]int64 {
	out := map[string]int64{}
	for _, s := range samples {
		out[layerOf(s.stack)] += s.ns
	}
	return out
}

// parseProfile decodes a gzipped pprof CPU profile (the profile.proto
// format runtime/pprof writes) into samples. It reads only what the
// charging rule needs: sample stacks and CPU nanoseconds, locations
// with their inlined lines, function names and the string table.
func parseProfile(gz []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct{ locs, vals []uint64 }
	var (
		samples []rawSample
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcs   = map[uint64]uint64{}   // function id -> name string index
		strs    []string
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s rawSample
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					s.vals = appendPacked(s.vals, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]sample, 0, len(samples))
	for _, s := range samples {
		if len(s.vals) == 0 {
			continue
		}
		var stack []string
		for _, l := range s.locs {
			for _, f := range locs[l] {
				if i := funcs[f]; i < uint64(len(strs)) {
					stack = append(stack, strs[i])
				}
			}
		}
		// The last value is CPU nanoseconds (the first is the count).
		out = append(out, sample{stack: stack, ns: int64(s.vals[len(s.vals)-1])})
	}
	return out, nil
}

// appendPacked appends a repeated integer field, which the encoder
// writes either packed (b set) or as one varint per element.
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

var errProto = errors.New("profile: malformed protobuf")

// eachField calls fn for every field of a protobuf message: varint
// fields with v set, length-delimited fields with b set (non-nil).
// Fixed-width fields are skipped.
func eachField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errProto
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errProto
			}
			msg = msg[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1, 5:
			w := 8
			if wire == 5 {
				w = 4
			}
			if len(msg) < w {
				return errProto
			}
			msg = msg[w:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errProto
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(num, 0, b); err != nil {
				return err
			}
		default:
			return errProto
		}
	}
	return nil
}
