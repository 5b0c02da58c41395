package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"strings"
)

// The CPU profile runtime/pprof writes is a gzipped profile.proto
// message. The benchmark needs only the sample stacks and their CPU
// nanoseconds, so it decodes those fields of the protobuf wire format
// itself rather than depend on a profile library.

// cpuSample is one profile sample: the function names on its stack,
// innermost first (inlined frames expanded), and its CPU time.
type cpuSample struct {
	stack []string
	nanos int64
}

// protobuf field numbers from profile.proto.
const (
	fProfileSampleType = 1
	fProfileSample     = 2
	fProfileLocation   = 4
	fProfileFunction   = 5
	fProfileStrings    = 6

	fSampleLocation = 1
	fSampleValue    = 2

	fLocationID   = 1
	fLocationLine = 4
	fLineFunction = 1

	fFunctionID   = 1
	fFunctionName = 2

	fValueTypeType = 1
)

// pbField is one decoded protobuf field: a varint or a byte slice.
type pbField struct {
	num   int
	wire  int
	value uint64
	bytes []byte
}

// pbFields splits a protobuf message into its fields.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n == 0 {
			return nil, fmt.Errorf("profile: bad field key")
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.value, n = pbVarint(b)
			if n == 0 {
				return nil, fmt.Errorf("profile: bad varint in field %d", f.num)
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return nil, fmt.Errorf("profile: short fixed64 in field %d", f.num)
			}
			b = b[8:]
		case 2:
			l, n := pbVarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return nil, fmt.Errorf("profile: bad length in field %d", f.num)
			}
			f.bytes = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, fmt.Errorf("profile: short fixed32 in field %d", f.num)
			}
			b = b[4:]
		default:
			return nil, fmt.Errorf("profile: unsupported wire type %d", f.wire)
		}
		out = append(out, f)
	}
	return out, nil
}

func pbVarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// pbUints reads a repeated integer field in either packed or unpacked
// form; runtime/pprof writes both depending on the length.
func pbUints(f pbField, into []uint64) ([]uint64, error) {
	if f.wire == 0 {
		return append(into, f.value), nil
	}
	b := f.bytes
	for len(b) > 0 {
		v, n := pbVarint(b)
		if n == 0 {
			return nil, fmt.Errorf("profile: bad packed varint in field %d", f.num)
		}
		into = append(into, v)
		b = b[n:]
	}
	return into, nil
}

// parseCPUProfile decodes a gzipped CPU profile into samples. The CPU
// time is the value whose sample type is "cpu".
func parseCPUProfile(gz []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	fields, err := pbFields(raw)
	if err != nil {
		return nil, err
	}
	var (
		strs       []string
		typeIdx    []uint64
		funcName   = map[uint64]uint64{} // function id -> string index
		locFuncs   = map[uint64][]uint64{}
		rawSamples []pbField
	)
	for _, f := range fields {
		switch f.num {
		case fProfileStrings:
			strs = append(strs, string(f.bytes))
		case fProfileSampleType:
			sub, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			for _, s := range sub {
				if s.num == fValueTypeType {
					typeIdx = append(typeIdx, s.value)
				}
			}
		case fProfileFunction:
			sub, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id, name uint64
			for _, s := range sub {
				switch s.num {
				case fFunctionID:
					id = s.value
				case fFunctionName:
					name = s.value
				}
			}
			funcName[id] = name
		case fProfileLocation:
			sub, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fns []uint64
			for _, s := range sub {
				switch s.num {
				case fLocationID:
					id = s.value
				case fLocationLine:
					line, err := pbFields(s.bytes)
					if err != nil {
						return nil, err
					}
					for _, l := range line {
						if l.num == fLineFunction {
							fns = append(fns, l.value)
						}
					}
				}
			}
			locFuncs[id] = fns
		case fProfileSample:
			rawSamples = append(rawSamples, f)
		}
	}
	cpuCol := -1
	for i, t := range typeIdx {
		if int(t) < len(strs) && strs[t] == "cpu" {
			cpuCol = i
		}
	}
	if cpuCol < 0 {
		return nil, fmt.Errorf("profile: no cpu sample type")
	}
	name := func(fn uint64) string {
		if i, ok := funcName[fn]; ok && int(i) < len(strs) {
			return strs[i]
		}
		return ""
	}
	out := make([]cpuSample, 0, len(rawSamples))
	for _, rs := range rawSamples {
		sub, err := pbFields(rs.bytes)
		if err != nil {
			return nil, err
		}
		var locs, vals []uint64
		for _, s := range sub {
			switch s.num {
			case fSampleLocation:
				if locs, err = pbUints(s, locs); err != nil {
					return nil, err
				}
			case fSampleValue:
				if vals, err = pbUints(s, vals); err != nil {
					return nil, err
				}
			}
		}
		if cpuCol >= len(vals) {
			continue
		}
		var stack []string
		for _, l := range locs {
			for _, fn := range locFuncs[l] {
				stack = append(stack, name(fn))
			}
		}
		out = append(out, cpuSample{stack: stack, nanos: int64(vals[cpuCol])})
	}
	return out, nil
}

// modulePrefix marks the repository's own packages in function names.
const modulePrefix = "lattice/internal/"

// gcRoots are the runtime entry points of background collection work:
// a sample under one of them with no repository frame is GC time.
var gcRoots = []string{
	"runtime.gcBgMarkWorker",
	"runtime.bgsweep",
	"runtime.bgscavenge",
	"runtime.gcMarkDone",
	"runtime.gcStart",
	"runtime.gcMarkTermination",
	"runtime.forEachP",
}

// attributeModule names the layer a sample belongs to: the module of
// its innermost lattice/internal frame ("lrm" for lrm/pbs), else "gc"
// for background collection, else "other".
func attributeModule(stack []string) string {
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, modulePrefix); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				return rest[:i]
			}
			return rest
		}
	}
	for _, fn := range stack {
		for _, root := range gcRoots {
			if fn == root {
				return "gc"
			}
		}
	}
	return "other"
}

// cpuByModule sums sample CPU seconds per attributed module.
func cpuByModule(samples []cpuSample) map[string]float64 {
	out := map[string]float64{}
	for _, s := range samples {
		out[attributeModule(s.stack)] += float64(s.nanos) / 1e9
	}
	return out
}
