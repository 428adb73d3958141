package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"slices"
	"strings"
	"time"
)

// span is one timed call into a layer. Spans of one run share Run; Parent
// is the id of the enclosing span (0 for a root).
type span struct {
	Run    string `json:"run"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Attr   string `json:"attr,omitempty"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
}

// tracer holds a run's spans in memory until write. A nil *tracer records
// nothing, so untraced repetitions share the traced code path at the cost
// of a nil check per call.
type tracer struct {
	run   string
	t0    time.Time
	spans []span
}

func newTracer(run string) *tracer { return &tracer{run: run, t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(parent int, name, attr string) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{
		Run: t.run, ID: len(t.spans) + 1, Parent: parent, Name: name, Attr: attr,
		Start: int64(time.Since(t.t0)),
	})
	return len(t.spans)
}

// end closes span id and returns its duration in seconds.
func (t *tracer) end(id int) float64 {
	if t == nil {
		return 0
	}
	s := &t.spans[id-1]
	s.Dur = int64(time.Since(t.t0)) - s.Start
	return time.Duration(s.Dur).Seconds()
}

// write stores the spans as JSON lines under outDir.
func (t *tracer) write() (string, error) {
	dir := filepath.Join(outDir, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, t.run+".jsonl")
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return "", err
		}
	}
	return path, os.WriteFile(path, b.Bytes(), 0o644)
}

// cpuBuckets are the CPU-profile attribution buckets. A sample goes to the
// module of its innermost frame in an ilp package; "sim.reset" takes the
// sim samples under Engine.Reset, "other" the remaining ilp packages
// (machine, isa, benchmarks, metrics, …) and this benchmark's own code, and
// "runtime" the samples with no ilp frame (GC, scheduler). The buckets
// partition the samples, so their shares sum to 1.
var cpuBuckets = []string{
	"lang", "compiler", "ir", "statictime", "sim", "sim.reset", "cache", "trace",
	"verify", "store", "experiments", "runtime", "other",
}

// profiled runs f under the CPU profiler and adds the profile's samples to
// counts by bucket.
func profiled(counts map[string]float64, f func() (tally, error)) (tally, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return tally{}, err
	}
	t, err := f()
	pprof.StopCPUProfile()
	if err != nil {
		return t, err
	}
	return t, foldProfile(buf.Bytes(), counts)
}

// bucketOf attributes one sample, given its function names innermost
// first.
func bucketOf(funcs []string) string {
	for _, fn := range funcs {
		m := moduleOf(fn)
		if m == "" {
			continue
		}
		if m == "sim" {
			for _, g := range funcs {
				if g == "ilp/internal/sim.(*Engine).Reset" {
					return "sim.reset"
				}
			}
		}
		return m
	}
	return "runtime"
}

// moduleOf names the bucket of an ilp function, or "" for any other.
func moduleOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiation: the type arguments name other packages
	}
	switch {
	case strings.HasPrefix(fn, "main."), strings.HasPrefix(fn, "ilp."):
		return "other"
	case !strings.HasPrefix(fn, "ilp/"):
		return ""
	}
	slash := strings.LastIndexByte(fn, '/')
	pkg := fn
	if dot := strings.IndexByte(fn[slash:], '.'); dot >= 0 {
		pkg = fn[:slash+dot]
	}
	if rest, ok := strings.CutPrefix(pkg, "ilp/internal/"); ok {
		first, _, _ := strings.Cut(rest, "/")
		if slices.Contains(cpuBuckets, first) {
			return first // a module with a bucket of its own
		}
	}
	return "other"
}

var errProfile = errors.New("malformed CPU profile")

// foldProfile decodes a gzip'd pprof profile (the protobuf profile.proto
// schema, of which it reads samples, locations, functions and the string
// table) and adds each sample's count to its bucket.
func foldProfile(data []byte, counts map[string]float64) error {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("CPU profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("CPU profile: %w", err)
	}
	type sample struct {
		locs []uint64
		n    int64
	}
	var (
		strs    []string
		samples []sample
		funcs   = map[uint64]uint64{}   // function id -> name string index
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
	)
	err = fields(raw, func(num int, wt int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			err := fields(b, func(num int, wt int, v uint64, b []byte) error {
				switch num {
				case 1:
					return appendUints(&s.locs, wt, v, b)
				case 2:
					var vals []uint64
					if err := appendUints(&vals, wt, v, b); err != nil {
						return err
					}
					if s.n == 0 && len(vals) > 0 {
						s.n = int64(vals[0]) // the first value is the sample count
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := fields(b, func(num int, wt int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return fields(b, func(num int, wt int, v uint64, b []byte) error {
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
			err := fields(b, func(num int, wt int, v uint64, b []byte) error {
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
		return fmt.Errorf("CPU profile: %w", err)
	}
	var names []string
	for _, s := range samples {
		names = names[:0]
		for _, l := range s.locs {
			for _, f := range locs[l] {
				if i := funcs[f]; i < uint64(len(strs)) {
					names = append(names, strs[i])
				}
			}
		}
		counts[bucketOf(names)] += float64(s.n)
	}
	return nil
}

// fields walks the protobuf fields of msg, passing each field's number,
// wire type, and its varint or fixed value or length-delimited bytes.
func fields(msg []byte, f func(num, wt int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errProfile
		}
		msg = msg[n:]
		var (
			v uint64
			b []byte
		)
		switch wt := key & 7; wt {
		case 0:
			if v, n = binary.Uvarint(msg); n <= 0 {
				return errProfile
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errProfile
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || l > uint64(len(msg)-n) {
				return errProfile
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errProfile
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return errProfile
		}
		if err := f(int(key>>3), int(key&7), v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendUints appends a repeated varint field in either encoding: one
// value per field (wire type 0) or packed (wire type 2).
func appendUints(dst *[]uint64, wt int, v uint64, b []byte) error {
	if wt == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errProfile
		}
		*dst, b = append(*dst, x), b[n:]
	}
	return nil
}
