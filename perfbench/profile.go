package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"strings"
)

// layerOf maps a profiled function name to its layer by package: the
// simulator's internal packages by name, the Go runtime (runtime,
// runtime/..., internal/runtime/...) as goruntime, and everything else —
// the benchmark itself, obs, the standard library — as other.
func layerOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // drop generic type arguments, which may hold dots
	}
	pkg := fn
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	switch {
	case strings.HasPrefix(pkg, "armcivt/internal/"):
		switch l := strings.TrimPrefix(pkg, "armcivt/internal/"); l {
		case "sim", "fabric", "armci", "core", "faults":
			return l
		}
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "goruntime"
	}
	return "other"
}

// cpuByLayer decodes a gzipped pprof CPU profile and counts its samples by
// the layer of each sample's leaf frame (the innermost inlined function).
func cpuByLayer(profile []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	var (
		strs     []string
		funcName = map[uint64]uint64{} // function id -> string index
		locFunc  = map[uint64]uint64{} // location id -> leaf function id
		leafLoc  []uint64
		count    []int64
	)
	// Field numbers are those of profile.proto.
	err = fields(raw, func(f int, v uint64, b []byte) error {
		switch f {
		case 2: // Sample
			var loc uint64
			var val int64
			haveLoc, haveVal := false, false
			err := fields(b, func(f int, v uint64, b []byte) error {
				switch {
				case f == 1 && !haveLoc: // location_id; [0] is the leaf
					loc, haveLoc = firstVarint(v, b), true
				case f == 2 && !haveVal: // value; [0] is the sample count
					val, haveVal = int64(firstVarint(v, b)), true
				}
				return nil
			})
			leafLoc, count = append(leafLoc, loc), append(count, val)
			return err
		case 4: // Location
			var id, fn uint64
			haveLine := false
			err := fields(b, func(f int, v uint64, b []byte) error {
				switch {
				case f == 1:
					id = v
				case f == 4 && !haveLine: // Line; the first is the innermost
					haveLine = true
					return fields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			locFunc[id] = fn
			return err
		case 5: // Function
			var id, name uint64
			err := fields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := map[string]int64{}
	for i, loc := range leafLoc {
		name := ""
		if s := funcName[locFunc[loc]]; s < uint64(len(strs)) {
			name = strs[s]
		}
		out[layerOf(name)] += count[i]
	}
	return out, nil
}

var errProto = errors.New("malformed profile")

// fields walks the protobuf message b, calling fn with each field's number
// and either its varint value or its length-delimited bytes.
func fields(b []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := varint(b)
		if n == 0 {
			return errProto
		}
		b = b[n:]
		var v uint64
		var sub []byte
		switch key & 7 {
		case 0:
			if v, n = varint(b); n == 0 {
				return errProto
			}
			b = b[n:]
		case 1, 5:
			w := 8
			if key&7 == 5 {
				w = 4
			}
			if len(b) < w {
				return errProto
			}
			b = b[w:]
		case 2:
			l, n := varint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errProto
			}
			sub, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return errProto
		}
		if err := fn(int(key>>3), v, sub); err != nil {
			return err
		}
	}
	return nil
}

// varint decodes one base-128 varint, returning it and its length (0 on
// malformed input).
func varint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// firstVarint is the first element of a repeated varint field, which the
// encoder writes either unpacked (v) or packed (b).
func firstVarint(v uint64, b []byte) uint64 {
	if b == nil {
		return v
	}
	v, _ = varint(b)
	return v
}
