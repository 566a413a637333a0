package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// layerOf maps a repro package path to its layer. Each profile sample is
// charged to the innermost frame inside module repro; runtime and
// standard-library frames go to their nearest repro caller, and samples
// with no repro frame go to gc when they are collector work and to
// runtime otherwise.
func layerOf(pkg string) string {
	switch {
	case strings.HasPrefix(pkg, "repro/internal/webapp"), strings.HasPrefix(pkg, "repro/internal/apps/"):
		return "webapp"
	case pkg == "repro/internal/orm", pkg == "repro/internal/thunk":
		return "orm"
	case pkg == "repro/internal/querystore":
		return "querystore"
	case pkg == "repro/internal/merge":
		return "merge"
	case pkg == "repro/internal/dispatch":
		return "dispatch"
	case pkg == "repro/internal/driver":
		return "driver"
	case pkg == "repro/internal/netsim":
		return "netsim"
	case pkg == "repro/internal/sqldb/plan", pkg == "repro/internal/sqldb/sqlparse":
		return "plan"
	case pkg == "repro/internal/sqldb/engine", pkg == "repro/internal/sqldb":
		return "engine"
	case pkg == "repro/internal/sqldb/storage":
		return "storage"
	}
	// The harness itself, internal/bench, obs and faults.
	return "bench"
}

// gcFrames mark collector goroutines, whose samples carry no repro frame.
var gcFrames = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
}

// profiler takes CPU profiles over timed intervals and adds their
// samples to per-layer totals.
type profiler struct {
	buf   bytes.Buffer
	ns    map[string]int64
	total int64
}

func newProfiler() *profiler { return &profiler{ns: make(map[string]int64)} }

func (p *profiler) start() {
	p.buf.Reset()
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		panic(fmt.Sprintf("perfbench: cpu profile: %v", err)) // only one profiler runs
	}
}

func (p *profiler) stop() error {
	pprof.StopCPUProfile()
	return p.add(p.buf.Bytes())
}

// share is the fraction of profiled CPU charged to layer.
func (p *profiler) share(layer string) float64 {
	return ratio(float64(p.ns[layer]), float64(p.total))
}

// add decodes one gzipped profile.proto message and charges its samples.
func (p *profiler) add(gz []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("perfbench: profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("perfbench: profile: %w", err)
	}
	prof, err := decodeProfile(raw)
	if err != nil {
		return fmt.Errorf("perfbench: profile: %w", err)
	}
	for _, s := range prof.samples {
		layer := prof.charge(s.locs)
		p.ns[layer] += s.cpuNs
		p.total += s.cpuNs
	}
	return nil
}

// The subset of profile.proto the benchmark reads.
type profSample struct {
	locs  []uint64 // leaf first
	cpuNs int64
}

type profile struct {
	samples   []profSample
	locFuncs  map[uint64][]uint64 // location id -> function ids, innermost first
	funcNames map[uint64]int64    // function id -> string index
	strs      []string
}

// charge names the layer a stack belongs to.
func (p *profile) charge(locs []uint64) string {
	gc := false
	for _, l := range locs {
		for _, f := range p.locFuncs[l] {
			idx := p.funcNames[f]
			if idx < 0 || int(idx) >= len(p.strs) {
				continue
			}
			name := p.strs[idx]
			if strings.HasPrefix(name, "repro/") {
				return layerOf(pkgOf(name))
			}
			if gcFrames[name] {
				gc = true
			}
		}
	}
	if gc {
		return "gc"
	}
	return "runtime"
}

// pkgOf cuts a symbol such as repro/internal/driver.(*laneBusy).free down
// to its package path. Type arguments can hold paths of their own, so the
// search stops at the first receiver or type-argument bracket.
func pkgOf(sym string) string {
	if i := strings.IndexAny(sym, "(["); i >= 0 {
		sym = sym[:i]
	}
	slash := strings.LastIndexByte(sym, '/')
	if dot := strings.IndexByte(sym[slash+1:], '.'); dot >= 0 {
		return sym[:slash+1+dot]
	}
	return sym
}

// Field numbers from profile.proto.
const (
	fProfileSample   = 2
	fProfileLocation = 4
	fProfileFunction = 5
	fProfileString   = 6
	fSampleLocation  = 1
	fSampleValue     = 2
	fLocationID      = 1
	fLocationLine    = 4
	fLineFunction    = 1
	fFunctionID      = 1
	fFunctionName    = 2
)

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: make(map[uint64][]uint64), funcNames: make(map[uint64]int64)}
	err := eachField(b, func(num int, v uint64, data []byte) error {
		switch num {
		case fProfileSample:
			var s profSample
			var vals []uint64
			err := eachField(data, func(num int, v uint64, data []byte) error {
				switch num {
				case fSampleLocation:
					return appendVarints(&s.locs, v, data)
				case fSampleValue:
					return appendVarints(&vals, v, data)
				}
				return nil
			})
			if err != nil {
				return err
			}
			// Values are [samples, cpu nanoseconds].
			if len(vals) >= 2 {
				s.cpuNs = int64(vals[1])
			}
			p.samples = append(p.samples, s)
		case fProfileLocation:
			var id uint64
			var funcs []uint64
			err := eachField(data, func(num int, v uint64, data []byte) error {
				switch num {
				case fLocationID:
					id = v
				case fLocationLine:
					return eachField(data, func(num int, v uint64, _ []byte) error {
						if num == fLineFunction {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locFuncs[id] = funcs
		case fProfileFunction:
			var id uint64
			name := int64(-1)
			err := eachField(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.funcNames[id] = name
		case fProfileString:
			p.strs = append(p.strs, string(data))
		}
		return nil
	})
	return p, err
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks one protobuf message, handing each varint field's value
// or each length-delimited field's bytes to fn.
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints adds a repeated varint field, packed or not.
func appendVarints(dst *[]uint64, v uint64, data []byte) error {
	if data == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}
