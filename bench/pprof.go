package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A minimal reader for the gzip-compressed protobuf runtime/pprof writes
// (github.com/google/pprof/proto/profile.proto), enough to charge every CPU
// sample to its leaf frame. It exists so the ledger needs no module beyond
// the standard library.

// cpuFrame is the leaf of one or more samples with their summed CPU time.
type cpuFrame struct {
	Func, File string
	NS         int64
}

// pbField is one decoded protobuf field: a varint value (wire type 0) or a
// length-delimited payload (wire type 2).
type pbField struct {
	num  int
	val  uint64
	data []byte
}

var errTruncated = errors.New("pprof: truncated message")

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// pbFields splits one message into its fields. Fixed-width wire types do
// not occur in a profile's messages that matter here and are skipped.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n := uvarint(b)
		if n == 0 {
			return nil, errTruncated
		}
		b = b[n:]
		f := pbField{num: int(key >> 3)}
		switch key & 7 {
		case 0:
			v, n := uvarint(b)
			if n == 0 {
				return nil, errTruncated
			}
			f.val, b = v, b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errTruncated
			}
			b = b[8:]
			continue
		case 2:
			l, n := uvarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return nil, errTruncated
			}
			f.data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, errTruncated
			}
			b = b[4:]
			continue
		default:
			return nil, fmt.Errorf("pprof: unsupported wire type %d", key&7)
		}
		out = append(out, f)
	}
	return out, nil
}

// pbInts reads a repeated integer field that may arrive packed (one
// length-delimited run of varints) or one varint at a time.
func pbInts(dst []uint64, f pbField) ([]uint64, error) {
	if f.data == nil {
		return append(dst, f.val), nil
	}
	for b := f.data; len(b) > 0; {
		v, n := uvarint(b)
		if n == 0 {
			return nil, errTruncated
		}
		dst, b = append(dst, v), b[n:]
	}
	return dst, nil
}

// decodeCPUProfile returns the profile's leaf frames with the CPU
// nanoseconds charged to each (the last sample value, which for a CPU
// profile is cpu/nanoseconds).
func decodeCPUProfile(gz []byte) ([]cpuFrame, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	top, err := pbFields(raw)
	if err != nil {
		return nil, err
	}

	type sample struct {
		leaf uint64
		ns   int64
	}
	var (
		samples  []sample
		strs     []string
		locFunc  = map[uint64]uint64{}    // location id -> leaf function id
		funcName = map[uint64][2]uint64{} // function id -> name, filename (string indexes)
	)
	for _, f := range top {
		switch f.num {
		case 2: // Sample
			sub, err := pbFields(f.data)
			if err != nil {
				return nil, err
			}
			var locs, vals []uint64
			for _, sf := range sub {
				switch sf.num {
				case 1:
					if locs, err = pbInts(locs, sf); err != nil {
						return nil, err
					}
				case 2:
					if vals, err = pbInts(vals, sf); err != nil {
						return nil, err
					}
				}
			}
			if len(locs) > 0 && len(vals) > 0 {
				samples = append(samples, sample{locs[0], int64(vals[len(vals)-1])})
			}
		case 4: // Location: the first Line is the innermost (inlined) frame
			sub, err := pbFields(f.data)
			if err != nil {
				return nil, err
			}
			var id, fn uint64
			seenLine := false
			for _, sf := range sub {
				switch {
				case sf.num == 1:
					id = sf.val
				case sf.num == 4 && !seenLine:
					seenLine = true
					line, err := pbFields(sf.data)
					if err != nil {
						return nil, err
					}
					for _, lf := range line {
						if lf.num == 1 {
							fn = lf.val
						}
					}
				}
			}
			locFunc[id] = fn
		case 5: // Function
			sub, err := pbFields(f.data)
			if err != nil {
				return nil, err
			}
			var id uint64
			var nf [2]uint64
			for _, sf := range sub {
				switch sf.num {
				case 1:
					id = sf.val
				case 2:
					nf[0] = sf.val
				case 4:
					nf[1] = sf.val
				}
			}
			funcName[id] = nf
		case 6:
			strs = append(strs, string(f.data))
		}
	}

	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	byFrame := map[[2]string]int64{}
	var order [][2]string
	for _, s := range samples {
		nf := funcName[locFunc[s.leaf]]
		k := [2]string{str(nf[0]), str(nf[1])}
		if _, ok := byFrame[k]; !ok {
			order = append(order, k)
		}
		byFrame[k] += s.ns
	}
	frames := make([]cpuFrame, 0, len(order))
	for _, k := range order {
		frames = append(frames, cpuFrame{Func: k[0], File: k[1], NS: byFrame[k]})
	}
	return frames, nil
}

// funcPackage extracts the import path from a symbol name such as
// "fastflex/internal/netsim.(*Network).arrive" or "runtime.mallocgc".
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may contain slashes and dots
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// layerShares buckets a CPU profile's leaf frames into layers with the
// given rule and returns each layer's CPU nanoseconds and their total.
func layerShares(frames []cpuFrame, layerOf func(pkg, file string) string) (map[string]int64, int64) {
	ns := map[string]int64{}
	var total int64
	for _, f := range frames {
		ns[layerOf(funcPackage(f.Func), f.File)] += f.NS
		total += f.NS
	}
	return ns, total
}
