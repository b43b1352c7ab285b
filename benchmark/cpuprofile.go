package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// The traced run samples the process with the standard CPU profiler and
// charges every sample to a layer: the innermost frame that belongs to a
// naiad/internal package names it. That is busy time per layer measured from
// outside — no hook in the program — and the shares sum to one, so "which
// layer dominates this workload" is a number, not an expectation. One
// refinement: the codec layer means wire serialization, so codec frames count
// as codec only when the runtime called them (frame encode/decode, delivery
// logs); the sink's canonical per-record encoding and checkpoint encoding are
// charged to the layer that asked for them.

// cpuLayers is the fixed set of layers CPU time is charged to.
var cpuLayers = []string{"runtime", "progress", "lib", "batchbuf", "codec", "transport",
	"serve", "supervise", "trace", "gc", "benchmark", "other"}

// layerOfPackage maps a naiad/internal package to its layer.
var layerOfPackage = map[string]string{
	"runtime": "runtime", "progress": "progress", "timestamp": "progress", "graph": "progress",
	"lib": "lib", "graphalgo": "lib", "workload": "benchmark", "batchbuf": "batchbuf", "codec": "codec",
	"transport": "transport", "serve": "serve", "supervise": "supervise", "trace": "trace",
}

// layerOfFrame classifies one function name; "" means the frame does not
// decide (a Go runtime or standard-library frame).
func layerOfFrame(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "naiad/internal/"); ok {
		pkg := rest
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			pkg = rest[:i]
		}
		if l, ok := layerOfPackage[pkg]; ok {
			return l
		}
		return "other"
	}
	if strings.HasPrefix(fn, "main.") {
		return "benchmark"
	}
	return ""
}

// layerOfStack charges one sampled stack (leaf first) to a layer.
func layerOfStack(frames []string) string {
	gc, codec := false, false
	for _, name := range frames {
		if strings.HasPrefix(name, "runtime.gcBgMarkWorker") || strings.HasPrefix(name, "runtime.bgsweep") ||
			strings.HasPrefix(name, "runtime.bgscavenge") {
			gc = true
		}
		switch l := layerOfFrame(name); {
		case l == "":
		case l == "codec":
			codec = true // whoever asked for the encoding decides, below
		case codec && l == "benchmark":
			// the timing decorator between the caller and the codec
		case codec && l == "runtime":
			return "codec"
		default:
			return l
		}
	}
	switch {
	case codec:
		return "codec"
	case gc:
		return "gc"
	}
	return "other"
}

// cpuProfile is a running CPU profile.
type cpuProfile struct{ buf bytes.Buffer }

func startCPUProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, err
	}
	return p, nil
}

// stop ends the profile and returns each layer's share of sampled CPU time
// and the total sampled CPU seconds.
func (p *cpuProfile) stop() (shares map[string]float64, cpuSeconds float64, err error) {
	pprof.StopCPUProfile()
	zr, err := gzip.NewReader(&p.buf)
	if err != nil {
		return nil, 0, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, err
	}
	prof, err := parseProfile(raw)
	if err != nil {
		return nil, 0, err
	}
	byLayer := make(map[string]float64)
	var total float64
	for _, s := range prof.samples {
		var frames []string
		for _, loc := range s.locs {
			for _, fn := range prof.locFuncs[loc] {
				frames = append(frames, prof.funcName[fn])
			}
		}
		layer := layerOfStack(frames)
		byLayer[layer] += s.nanos
		total += s.nanos
	}
	shares = make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		shares[l] = share(byLayer[l], total)
	}
	return shares, total / 1e9, nil
}

// profile is the part of a pprof profile the layer accounting needs.
type profile struct {
	samples  []profSample
	locFuncs map[uint64][]uint64 // location id → function ids, innermost (inlined) first
	funcName map[uint64]string
}

type profSample struct {
	locs  []uint64 // leaf first
	nanos float64
}

// parseProfile decodes the profile.proto fields it needs with a minimal
// protobuf reader (the standard library's parser is internal).
func parseProfile(raw []byte) (*profile, error) {
	p := &profile{locFuncs: make(map[uint64][]uint64), funcName: make(map[uint64]string)}
	var strs []string
	funcNameIdx := make(map[uint64]uint64)
	err := eachField(raw, func(num int, varint uint64, data []byte) error {
		switch num {
		case 2: // Sample
			var s profSample
			var vals []uint64
			if err := eachField(data, func(n int, v uint64, d []byte) error {
				switch n {
				case 1:
					s.locs = appendVarints(s.locs, v, d)
				case 2:
					vals = appendVarints(vals, v, d)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(vals) > 0 {
				// The CPU profile's last value is cpu/nanoseconds.
				s.nanos = float64(int64(vals[len(vals)-1]))
			}
			p.samples = append(p.samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			if err := eachField(data, func(n int, v uint64, d []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // Line
					return eachField(d, func(ln int, lv uint64, _ []byte) error {
						if ln == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			p.locFuncs[id] = fns
		case 5: // Function
			var id, name uint64
			if err := eachField(data, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			}); err != nil {
				return err
			}
			funcNameIdx[id] = name
		case 6: // string_table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, idx := range funcNameIdx {
		if idx < uint64(len(strs)) {
			p.funcName[id] = strs[idx]
		}
	}
	return p, nil
}

// appendVarints appends a repeated varint field's values, packed or not.
func appendVarints(dst []uint64, varint uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, varint)
	}
	for len(packed) > 0 {
		v, n := uvarint(packed)
		if n <= 0 {
			break
		}
		dst = append(dst, v)
		packed = packed[n:]
	}
	return dst
}

func uvarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// eachField walks one protobuf message, calling f per field: varint fields
// pass their value with data nil, length-delimited fields pass their bytes.
func eachField(msg []byte, f func(num int, varint uint64, data []byte) error) error {
	for len(msg) > 0 {
		key, n := uvarint(msg)
		if n <= 0 {
			return fmt.Errorf("pprof: bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := uvarint(msg)
			if n <= 0 {
				return fmt.Errorf("pprof: bad varint")
			}
			msg = msg[n:]
			if err := f(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return fmt.Errorf("pprof: short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return fmt.Errorf("pprof: bad length")
			}
			data := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if data == nil {
				data = []byte{}
			}
			if err := f(num, 0, data); err != nil {
				return err
			}
		case 5:
			if len(msg) < 4 {
				return fmt.Errorf("pprof: short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("pprof: unsupported wire type %d", wire)
		}
	}
	return nil
}
