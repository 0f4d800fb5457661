package memobs

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
)

// Minimal pprof profile.proto decoder — just enough protobuf wire
// format to read the profiles runtime/pprof emits in-process: string
// table, sample types, samples (leaf location, values, labels),
// locations (leaf line), and functions. No dependency on
// github.com/google/pprof; the wire format is stable and tiny.

// profSample is one decoded pprof sample.
type profSample struct {
	locs   []uint64          // location IDs, leaf first
	values []int64           // parallel to sampleTypes
	labels map[string]string // string labels (e.g. "op")
}

// profData is a decoded pprof profile.
type profData struct {
	sampleTypes []string // "type/unit" per value column
	samples     []profSample
	leafFunc    map[uint64]string // location ID -> innermost function name
}

// typeIndex returns the value column whose sample type matches name
// ("cpu", "alloc_space", ...), or -1.
func (p *profData) typeIndex(name string) int {
	for i, t := range p.sampleTypes {
		if len(t) >= len(name) && t[:len(name)] == name && (len(t) == len(name) || t[len(name)] == '/') {
			return i
		}
	}
	return -1
}

// parsePprof decodes a (possibly gzipped) pprof protobuf profile.
func parsePprof(data []byte) (*profData, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		raw, err := io.ReadAll(zr)
		if err != nil {
			return nil, err
		}
		data = raw
	}

	var strtab []string
	type vt struct{ typ, unit int64 }
	var sampleTypes []vt
	type rawLabel struct{ key, str int64 }
	type rawSample struct {
		locs   []uint64
		values []int64
		labels []rawLabel
	}
	var samples []rawSample
	funcName := map[uint64]int64{}     // function ID -> name string index
	locLeafFunc := map[uint64]uint64{} // location ID -> line[0].function_id

	d := pbdec{b: data}
	for !d.done() {
		num, wt, err := d.tag()
		if err != nil {
			return nil, err
		}
		switch num {
		case 1: // sample_type: ValueType
			msg, err := d.bytesField(wt)
			if err != nil {
				return nil, err
			}
			var v vt
			s := pbdec{b: msg}
			for !s.done() {
				n, w, err := s.tag()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					v.typ, err = s.intField(w)
				case 2:
					v.unit, err = s.intField(w)
				default:
					err = s.skip(w)
				}
				if err != nil {
					return nil, err
				}
			}
			sampleTypes = append(sampleTypes, v)
		case 2: // sample
			msg, err := d.bytesField(wt)
			if err != nil {
				return nil, err
			}
			var sm rawSample
			s := pbdec{b: msg}
			for !s.done() {
				n, w, err := s.tag()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1: // location_id, possibly packed
					u, err := s.uintsField(w)
					if err != nil {
						return nil, err
					}
					sm.locs = append(sm.locs, u...)
				case 2: // value, possibly packed
					u, err := s.uintsField(w)
					if err != nil {
						return nil, err
					}
					for _, x := range u {
						sm.values = append(sm.values, int64(x))
					}
				case 3: // label
					lm, err := s.bytesField(w)
					if err != nil {
						return nil, err
					}
					var lb rawLabel
					ls := pbdec{b: lm}
					for !ls.done() {
						ln, lw, err := ls.tag()
						if err != nil {
							return nil, err
						}
						switch ln {
						case 1:
							lb.key, err = ls.intField(lw)
						case 2:
							lb.str, err = ls.intField(lw)
						default:
							err = ls.skip(lw)
						}
						if err != nil {
							return nil, err
						}
					}
					sm.labels = append(sm.labels, lb)
				default:
					if err := s.skip(w); err != nil {
						return nil, err
					}
				}
			}
			samples = append(samples, sm)
		case 4: // location
			msg, err := d.bytesField(wt)
			if err != nil {
				return nil, err
			}
			var id, leaf uint64
			seenLine := false
			s := pbdec{b: msg}
			for !s.done() {
				n, w, err := s.tag()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					v, err := s.intField(w)
					if err != nil {
						return nil, err
					}
					id = uint64(v)
				case 4: // line; line[0] is the innermost frame
					lm, err := s.bytesField(w)
					if err != nil {
						return nil, err
					}
					if !seenLine {
						seenLine = true
						ls := pbdec{b: lm}
						for !ls.done() {
							ln, lw, err := ls.tag()
							if err != nil {
								return nil, err
							}
							if ln == 1 {
								v, err := ls.intField(lw)
								if err != nil {
									return nil, err
								}
								leaf = uint64(v)
							} else if err := ls.skip(lw); err != nil {
								return nil, err
							}
						}
					}
				default:
					if err := s.skip(w); err != nil {
						return nil, err
					}
				}
			}
			if seenLine {
				locLeafFunc[id] = leaf
			}
		case 5: // function
			msg, err := d.bytesField(wt)
			if err != nil {
				return nil, err
			}
			var id uint64
			var name int64
			s := pbdec{b: msg}
			for !s.done() {
				n, w, err := s.tag()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					v, err := s.intField(w)
					if err != nil {
						return nil, err
					}
					id = uint64(v)
				case 2:
					name, err = s.intField(w)
					if err != nil {
						return nil, err
					}
				default:
					if err := s.skip(w); err != nil {
						return nil, err
					}
				}
			}
			funcName[id] = name
		case 6: // string_table
			msg, err := d.bytesField(wt)
			if err != nil {
				return nil, err
			}
			strtab = append(strtab, string(msg))
		default:
			if err := d.skip(wt); err != nil {
				return nil, err
			}
		}
	}

	str := func(i int64) string {
		if i < 0 || int(i) >= len(strtab) {
			return ""
		}
		return strtab[i]
	}
	out := &profData{leafFunc: make(map[uint64]string, len(locLeafFunc))}
	for _, v := range sampleTypes {
		out.sampleTypes = append(out.sampleTypes, str(v.typ)+"/"+str(v.unit))
	}
	for loc, fn := range locLeafFunc {
		out.leafFunc[loc] = str(funcName[fn])
	}
	for _, sm := range samples {
		ps := profSample{locs: sm.locs, values: sm.values}
		for _, lb := range sm.labels {
			if k := str(lb.key); k != "" {
				if ps.labels == nil {
					ps.labels = map[string]string{}
				}
				ps.labels[k] = str(lb.str)
			}
		}
		out.samples = append(out.samples, ps)
	}
	return out, nil
}

// pbdec is a cursor over protobuf wire data.
type pbdec struct {
	b []byte
	i int
}

func (d *pbdec) done() bool { return d.i >= len(d.b) }

func (d *pbdec) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if d.i >= len(d.b) {
			return 0, fmt.Errorf("memobs: truncated varint")
		}
		c := d.b[d.i]
		d.i++
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, fmt.Errorf("memobs: varint overflow")
}

func (d *pbdec) tag() (num, wt int, err error) {
	v, err := d.varint()
	if err != nil {
		return 0, 0, err
	}
	return int(v >> 3), int(v & 7), nil
}

// bytesField reads a length-delimited field (wire type 2).
func (d *pbdec) bytesField(wt int) ([]byte, error) {
	if wt != 2 {
		return nil, fmt.Errorf("memobs: want length-delimited field, got wire type %d", wt)
	}
	n, err := d.varint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(d.b)-d.i) {
		return nil, fmt.Errorf("memobs: truncated field")
	}
	b := d.b[d.i : d.i+int(n)]
	d.i += int(n)
	return b, nil
}

// intField reads a varint field (wire type 0).
func (d *pbdec) intField(wt int) (int64, error) {
	if wt != 0 {
		return 0, fmt.Errorf("memobs: want varint field, got wire type %d", wt)
	}
	v, err := d.varint()
	return int64(v), err
}

// uintsField reads a repeated varint field: either one value (wire
// type 0) or a packed run (wire type 2).
func (d *pbdec) uintsField(wt int) ([]uint64, error) {
	switch wt {
	case 0:
		v, err := d.varint()
		if err != nil {
			return nil, err
		}
		return []uint64{v}, nil
	case 2:
		b, err := d.bytesField(wt)
		if err != nil {
			return nil, err
		}
		var out []uint64
		s := pbdec{b: b}
		for !s.done() {
			v, err := s.varint()
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
		return out, nil
	}
	return nil, fmt.Errorf("memobs: repeated ints with wire type %d", wt)
}

func (d *pbdec) skip(wt int) error {
	switch wt {
	case 0:
		_, err := d.varint()
		return err
	case 1:
		d.i += 8
	case 2:
		_, err := d.bytesField(wt)
		return err
	case 5:
		d.i += 4
	default:
		return fmt.Errorf("memobs: unknown wire type %d", wt)
	}
	if d.i > len(d.b) {
		return fmt.Errorf("memobs: truncated field")
	}
	return nil
}
