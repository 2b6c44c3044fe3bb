package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
)

// The kernel stages a CPU profile is folded into. A sample goes to the
// stage of its innermost frame that names one (so math.Log called from
// the generator counts as generator); a sample with no such frame goes to
// stage.other, so a renamed kernel function shows up there rather than
// dropping out of the shares.
var stageNames = []string{
	"stage.fetch", "stage.rename", "stage.issue", "stage.events", "stage.retire",
	"stage.iq_retained", "stage.generator", "stage.mem", "stage.bpred", "stage.gc", "stage.other",
}

const pipelinePkg = "loosesim/internal/pipeline.(*Machine)."

var stageFuncs = map[string]string{
	pipelinePkg + "fetch":                             "stage.fetch",
	pipelinePkg + "fetchBranch":                       "stage.fetch",
	pipelinePkg + "pickFetchThread":                   "stage.fetch",
	pipelinePkg + "rename":                            "stage.rename",
	pipelinePkg + "renameOne":                         "stage.rename",
	pipelinePkg + "issue":                             "stage.issue",
	pipelinePkg + "srcReady":                          "stage.issue",
	pipelinePkg + "srcReady-fm":                       "stage.issue",
	pipelinePkg + "operandsDelivered":                 "stage.issue",
	pipelinePkg + "processEvents":                     "stage.events",
	pipelinePkg + "schedule":                          "stage.events",
	pipelinePkg + "onComplete":                        "stage.events",
	pipelinePkg + "resolveBranch":                     "stage.events",
	pipelinePkg + "onLoadResolve":                     "stage.events",
	pipelinePkg + "onWriteback":                       "stage.events",
	pipelinePkg + "onIQFree":                          "stage.events",
	pipelinePkg + "onExec":                            "stage.events",
	pipelinePkg + "revertToWaiting":                   "stage.events",
	pipelinePkg + "trapRecover":                       "stage.events",
	pipelinePkg + "squashYounger":                     "stage.events",
	pipelinePkg + "retire":                            "stage.retire",
	pipelinePkg + "reclaimDead":                       "stage.retire",
	pipelinePkg + "recycleDead":                       "stage.retire",
	"loosesim/internal/iq.(*Queue).SelectOldestReady": "stage.issue",
	"loosesim/internal/iq.(*Queue).Retained":          "stage.iq_retained",
}

var stagePrefixes = []struct{ prefix, stage string }{
	{"loosesim/internal/pipeline.(*eventRing).", "stage.events"},
	{"loosesim/internal/workload.", "stage.generator"},
	{"loosesim/internal/mem.", "stage.mem"},
	{"loosesim/internal/bpred.", "stage.bpred"},
	{"runtime.gc", "stage.gc"},
	{"runtime.mallocgc", "stage.gc"},
	{"runtime.scanobject", "stage.gc"},
	{"runtime.greyobject", "stage.gc"},
	{"runtime.markBits", "stage.gc"},
	{"runtime.bgsweep", "stage.gc"},
	{"runtime.sweepone", "stage.gc"},
	{"runtime.(*mspan).", "stage.gc"},
	{"runtime.(*mheap).", "stage.gc"},
	{"runtime.(*gcWork).", "stage.gc"},
}

func stageOf(fn string) string {
	if s, ok := stageFuncs[fn]; ok {
		return s
	}
	for _, p := range stagePrefixes {
		if strings.HasPrefix(fn, p.prefix) {
			return p.stage
		}
	}
	return ""
}

// foldStages returns each stage's share of a gzipped pprof CPU profile's
// sampled time.
func foldStages(gz []byte) (map[string]float64, error) {
	prof, err := parseProfile(gz)
	if err != nil {
		return nil, err
	}
	shares := map[string]float64{}
	for _, n := range stageNames {
		shares[n] = 0
	}
	var total float64
	for _, s := range prof.samples {
		stage := "stage.other"
	frames:
		for _, loc := range s.locs {
			for _, fn := range prof.locFuncs[loc] {
				if st := stageOf(prof.funcNames[fn]); st != "" {
					stage = st
					break frames
				}
			}
		}
		shares[stage] += s.value
		total += s.value
	}
	if total == 0 {
		return nil, fmt.Errorf("CPU profile holds no samples")
	}
	for n := range shares {
		shares[n] /= total
	}
	return shares, nil
}

// profile is the part of a pprof profile the fold needs.
type profile struct {
	samples   []profSample
	locFuncs  map[uint64][]uint64 // location -> functions, innermost first
	funcNames map[uint64]string
}

type profSample struct {
	locs  []uint64 // leaf first
	value float64  // the last sample value: CPU nanoseconds
}

// parseProfile decodes the protocol-buffer fields of profile.proto that
// the fold reads: Profile.sample (2), .location (4), .function (5) and
// .string_table (6); Sample.location_id (1) and .value (2);
// Location.id (1) and .line (4); Line.function_id (1); Function.id (1) and
// .name (2).
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]string{}}
	funcName := map[uint64]uint64{}
	var strs []string
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2:
			var s profSample
			var vals []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					vals = appendVarints(vals, v, b)
				}
				return nil
			})
			if len(vals) > 0 {
				s.value = float64(vals[len(vals)-1])
			}
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5:
			var id, name uint64
			err := fields(b, func(num int, v uint64, _ []byte) error {
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
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, name := range funcName {
		if name < uint64(len(strs)) {
			p.funcNames[id] = strs[name]
		}
	}
	return p, nil
}

// fields walks a protobuf message, calling f with each field's number and
// its varint value (wire type 0) or bytes (wire type 2); fixed-width
// fields are skipped.
func fields(b []byte, f func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return fmt.Errorf("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("profile: short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("profile: bad length")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("profile: short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := f(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field that arrived either
// unpacked (one varint, v) or packed (b).
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
