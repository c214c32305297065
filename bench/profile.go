package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// This file reads the gzipped profile.proto that runtime/pprof writes
// (github.com/google/pprof, proto/profile.proto), using the standard
// library only. It decodes just what the layer fold needs: sample
// types, samples with their labels, locations, functions and the
// string table.

// profile is a decoded CPU profile with its string references resolved.
type profile struct {
	sampleTypes []string
	samples     []profSample
	// leafFunc maps a location ID to the name of its innermost
	// function (inlined frames come first in a location's lines).
	leafFunc map[uint64]string
}

type profSample struct {
	locs   []uint64 // leaf first
	values []int64
	labels map[string]string
}

var errProto = errors.New("profile: malformed protobuf")

// parseProfile decodes a gzipped profile.proto.
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	// String references are indexes into the string table, which may
	// come after the messages that use them: collect, then resolve.
	type rawSample struct {
		locs   []uint64
		values []uint64
		labels [][2]uint64 // key, str
	}
	var (
		strs        []string
		sampleTypes []uint64
		samples     []rawSample
		locFunc     = map[uint64]uint64{} // location -> leaf function ID
		funcName    = map[uint64]uint64{} // function ID -> name index
	)
	err = fields(raw, func(num, wire int, v uint64, data []byte) error {
		switch num {
		case 1: // sample_type: ValueType{type = 1}
			return fields(data, func(num, _ int, v uint64, _ []byte) error {
				if num == 1 {
					sampleTypes = append(sampleTypes, v)
				}
				return nil
			})
		case 2: // sample: {location_id = 1, value = 2, label = 3}
			var s rawSample
			err := fields(data, func(num, wire int, v uint64, data []byte) error {
				var err error
				switch num {
				case 1:
					s.locs, err = appendVarints(s.locs, wire, v, data)
				case 2:
					s.values, err = appendVarints(s.values, wire, v, data)
				case 3: // Label{key = 1, str = 2}
					var kv [2]uint64
					err = fields(data, func(num, _ int, v uint64, _ []byte) error {
						if num == 1 || num == 2 {
							kv[num-1] = v
						}
						return nil
					})
					s.labels = append(s.labels, kv)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // location: {id = 1, line = 4: Line{function_id = 1}}
			var id, fn uint64
			first := true
			err := fields(data, func(num, _ int, v uint64, data []byte) error {
				switch {
				case num == 1:
					id = v
				case num == 4 && first:
					first = false
					return fields(data, func(num, _ int, v uint64, _ []byte) error {
						if num == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			locFunc[id] = fn
			return err
		case 5: // function: {id = 1, name = 2}
			var id, name uint64
			err := fields(data, func(num, _ int, v uint64, _ []byte) error {
				switch num {
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
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	str := func(i uint64) (string, error) {
		if i >= uint64(len(strs)) {
			return "", errProto
		}
		return strs[i], nil
	}
	p := &profile{leafFunc: map[uint64]string{}}
	for _, t := range sampleTypes {
		s, err := str(t)
		if err != nil {
			return nil, err
		}
		p.sampleTypes = append(p.sampleTypes, s)
	}
	for loc, fn := range locFunc {
		name := ""
		if i, ok := funcName[fn]; ok {
			if name, err = str(i); err != nil {
				return nil, err
			}
		}
		p.leafFunc[loc] = name
	}
	for _, rs := range samples {
		s := profSample{locs: rs.locs, labels: map[string]string{}}
		for _, v := range rs.values {
			s.values = append(s.values, int64(v))
		}
		for _, kv := range rs.labels {
			k, err := str(kv[0])
			if err != nil {
				return nil, err
			}
			if s.labels[k], err = str(kv[1]); err != nil {
				return nil, err
			}
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

// fold sums the CPU time of the samples that carry the label key,
// grouped by layer(name of the leaf function), and returns the sums in
// nanoseconds with the number of samples folded.
func (p *profile) fold(key string, layer func(fn string) string) (map[string]int64, int) {
	idx := len(p.sampleTypes) - 1
	for i, t := range p.sampleTypes {
		if t == "cpu" {
			idx = i
		}
	}
	out := map[string]int64{}
	n := 0
	for _, s := range p.samples {
		if _, ok := s.labels[key]; !ok || idx < 0 || idx >= len(s.values) || len(s.locs) == 0 {
			continue
		}
		out[layer(p.leafFunc[s.locs[0]])] += s.values[idx]
		n++
	}
	return out, n
}

// fields calls f for each field of a protobuf message: the varint or
// fixed-width value in v, or the bytes of a length-delimited field in
// data.
func fields(b []byte, f func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		var v uint64
		var data []byte
		switch wire := key & 7; wire {
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
		if err := f(int(key>>3), int(key&7), v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field's values, which the
// encoder may write packed (one length-delimited field) or one per
// field.
func appendVarints(dst []uint64, wire int, v uint64, data []byte) ([]uint64, error) {
	if wire != 2 {
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
