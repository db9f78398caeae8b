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

// This file decodes the gzip'd profile.proto that runtime/pprof writes
// and charges each CPU sample to a wfsql layer. Only the fields the
// attribution needs are read: samples (location ids and values),
// locations (their inlined line entries), functions (name string index)
// and the string table. Everything else is skipped.

// layerPkgs are the wfsql/internal packages that get a CPU bucket of
// their own.
var layerPkgs = []string{
	"xpath", "xdm", "rowset", "dataset", "bis", "orasoa", "engine",
	"mswf", "sqldb", "wsbus", "journal",
}

// cpuBuckets are the buckets CPU time is charged to, in report order.
// "other" collects wfsql/internal packages outside layerPkgs;
// "unattributed" collects samples with no wfsql/internal frame at all
// (background GC, the scheduler, the benchmark's own loop).
var cpuBuckets = append(append([]string(nil), layerPkgs...), "other", "unattributed")

const internalPrefix = "wfsql/internal/"

// bucketOf maps a fully qualified function name to its bucket, or ""
// when the function is not in a wfsql/internal package.
func bucketOf(fn string) string {
	if !strings.HasPrefix(fn, internalPrefix) {
		return ""
	}
	pkg := fn[len(internalPrefix):]
	if i := strings.IndexAny(pkg, "./"); i >= 0 {
		pkg = pkg[:i]
	}
	for _, b := range layerPkgs {
		if b == pkg {
			return b
		}
	}
	return "other"
}

type cpuProfile struct {
	// samples holds, per sample, its location ids (leaf first) and its
	// value (CPU nanoseconds when the profile has them, else the count).
	samples []profSample
	// funcs maps a location id to its function names, innermost
	// inlined frame first.
	funcs map[uint64][]string
}

type profSample struct {
	locs  []uint64
	value int64
}

// attribute charges every sample to the innermost wfsql/internal frame
// on its stack and returns each bucket's share of the total. The shares
// sum to 1 unless the profile is empty, in which case all are 0.
func (p *cpuProfile) attribute() map[string]float64 {
	total := int64(0)
	per := map[string]int64{}
	for _, s := range p.samples {
		b := "unattributed"
	stack:
		for _, loc := range s.locs {
			for _, fn := range p.funcs[loc] {
				if k := bucketOf(fn); k != "" {
					b = k
					break stack
				}
			}
		}
		per[b] += s.value
		total += s.value
	}
	shares := make(map[string]float64, len(cpuBuckets))
	for _, b := range cpuBuckets {
		if total > 0 {
			shares[b] = float64(per[b]) / float64(total)
		} else {
			shares[b] = 0
		}
	}
	return shares
}

// decodeProfile parses a gzip'd profile.proto.
func decodeProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: gunzip: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: gunzip: %w", err)
	}

	var (
		strs      []string
		units     []uint64 // per sample type, its unit's string index
		rawSample [][]byte
		locFuncs  = map[uint64][]uint64{} // location id -> function ids
		funcName  = map[uint64]uint64{}   // function id -> string index
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type: ValueType{type=1, unit=2}
			var unit uint64
			err := eachField(b, func(n int, v uint64, _ []byte) error {
				if n == 2 {
					unit = v
				}
				return nil
			})
			units = append(units, unit)
			return err
		case 2: // sample
			rawSample = append(rawSample, b)
		case 4: // location: Location{id=1, line=4}, Line{function_id=1}
			var id uint64
			var fns []uint64
			err := eachField(b, func(n int, v uint64, lb []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return eachField(lb, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function: Function{id=1, name=2}
			var id, name uint64
			err := eachField(b, func(n int, v uint64, _ []byte) error {
				switch n {
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
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}

	// A CPU profile has the value types samples/count and
	// cpu/nanoseconds; charge by nanoseconds when present.
	valueIdx := 0
	for i, u := range units {
		if str(u) == "nanoseconds" {
			valueIdx = i
		}
	}
	p := &cpuProfile{funcs: make(map[uint64][]string, len(locFuncs))}
	for id, fns := range locFuncs {
		names := make([]string, len(fns))
		for i, f := range fns {
			names[i] = str(funcName[f])
		}
		p.funcs[id] = names
	}
	for _, b := range rawSample {
		var s profSample
		var vals []uint64
		err := eachField(b, func(n int, v uint64, pb []byte) error {
			switch n {
			case 1: // location_id, packed or not
				if pb == nil {
					s.locs = append(s.locs, v)
					return nil
				}
				var err error
				s.locs, err = appendPacked(s.locs, pb)
				return err
			case 2: // value, packed or not
				if pb == nil {
					vals = append(vals, v)
					return nil
				}
				var err error
				vals, err = appendPacked(vals, pb)
				return err
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if valueIdx < len(vals) {
			s.value = int64(vals[valueIdx])
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

// appendPacked decodes a packed run of varints.
func appendPacked(dst []uint64, b []byte) ([]uint64, error) {
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return dst, errors.New("profile: bad packed varint")
		}
		dst = append(dst, v)
		b = b[n:]
	}
	return dst, nil
}

// eachField walks the top-level fields of a protobuf message, calling fn
// with the field number and either the varint value (wire type 0) or
// the payload (wire type 2; never nil). Packed repeated varints arrive
// as payloads. Fixed-width fields are skipped.
func eachField(buf []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		buf = buf[n:]
		var v uint64
		var b []byte
		switch wire := key & 7; wire {
		case 0:
			v, n = binary.Uvarint(buf)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			buf = buf[n:]
		case 1, 5:
			w := 8
			if wire == 5 {
				w = 4
			}
			if len(buf) < w {
				return errors.New("profile: short fixed field")
			}
			buf = buf[w:]
			continue
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errors.New("profile: bad length")
			}
			b = buf[n : n+int(l) : n+int(l)]
			buf = buf[n+int(l):]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(int(key>>3), v, b); err != nil {
			return err
		}
	}
	return nil
}
