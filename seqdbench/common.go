package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"net"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"repro/internal/seq"
	"repro/internal/server"
	"repro/internal/workload"
)

// serverConfig is cmd/seqd's default configuration: GOMAXPROCS workers,
// the default frame limit, a 5 s epoch GC, no extra verification,
// default parallelism and reoptimization off.
func serverConfig() server.Config {
	return server.Config{Name: "seqdbench", GCInterval: 5 * time.Second}
}

// baseSpec is one of the paper's Table 1 sequences: its span in
// thousands of positions (scaled by the workload) and its density.
type baseSpec struct {
	name    string
	lo, hi  int64
	density float64
}

// table1 are the shapes of Table 1: IBM [200k, 500k] at 0.95, DEC
// [1k, 350k] at 0.70, HP [1k, 750k] at 1.00.
var table1 = []baseSpec{
	{"ibm", 200, 500, 0.95},
	{"dec", 1, 350, 0.70},
	{"hp", 1, 750, 1.00},
}

// genBases builds the Table 1 sequences at the given scale with seeds
// derived from the run's seed (workload.Table1 hard-codes its seeds).
func genBases(seed, scale int64) (map[string]*seq.Materialized, error) {
	rng := rand.New(rand.NewSource(seed))
	out := make(map[string]*seq.Materialized, len(table1))
	for _, b := range table1 {
		m, err := workload.Stock(workload.StockConfig{
			Name:    b.name,
			Span:    seq.NewSpan(b.lo*scale, b.hi*scale),
			Density: b.density,
			Seed:    rng.Int63(),
		})
		if err != nil {
			return nil, fmt.Errorf("generate %s: %w", b.name, err)
		}
		out[b.name] = m
	}
	return out, nil
}

// countRecords sums the non-Null records of the generated bases.
func countRecords(bases map[string]*seq.Materialized) int {
	n := 0
	for _, m := range bases {
		n += len(m.Entries())
	}
	return n
}

// fingerprint is a result's row count plus an FNV-64a hash of every
// position and value, in order.
type fingerprint struct {
	rows int
	hash uint64
}

func fingerprintOf(entries []seq.Entry) fingerprint {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, e := range entries {
		put(uint64(e.Pos))
		put(uint64(len(e.Rec)))
		for _, v := range e.Rec {
			put(uint64(v.T))
			switch v.T {
			case seq.TInt:
				put(uint64(v.AsInt()))
			case seq.TFloat:
				put(math.Float64bits(v.AsFloat()))
			case seq.TString:
				h.Write([]byte(v.AsStr()))
			case seq.TBool:
				if v.AsBool() {
					put(1)
				} else {
					put(0)
				}
			}
		}
	}
	return fingerprint{rows: len(entries), hash: h.Sum64()}
}

// floatTol is the relative difference allowed between a float the
// engine computed and the reference interpreter's. The engine may sum a
// window with an O(1) sliding accumulator where the interpreter sums
// every window afresh, so the two round differently.
const floatTol = 1e-9

// sameEntries compares two results position by position: exactly,
// except that floats may differ by floatTol relative to their magnitude.
// It returns a description of the first difference, or "".
func sameEntries(got, want []seq.Entry) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d rows, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Pos != w.Pos || len(g.Rec) != len(w.Rec) {
			return fmt.Sprintf("row %d at position %d, want position %d", i, g.Pos, w.Pos)
		}
		for j := range w.Rec {
			a, b := g.Rec[j], w.Rec[j]
			if a.T == seq.TFloat && b.T == seq.TFloat {
				x, y := a.AsFloat(), b.AsFloat()
				if math.Abs(x-y) <= floatTol*math.Max(math.Abs(x), math.Abs(y)) {
					continue
				}
			}
			if !a.Equal(b) {
				return fmt.Sprintf("position %d field %d = %v, want %v", w.Pos, j, a, b)
			}
		}
	}
	return ""
}

// listener starts serving srv on a loopback port. stop closes the
// server and returns once Serve has returned. It closes the listener
// itself too: Server.Close only closes a listener Serve has already
// recorded, and Serve runs on its own goroutine.
func listener(srv *server.Server) (addr string, stop func() error, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	return ln.Addr().String(), func() error {
		srv.Close()
		ln.Close()
		return <-done
	}, nil
}

// setupRuns is how often an untraced run sets up to time it; setup_s is
// the median.
const setupRuns = 7

// timeRepeated runs setup n times and returns the median duration and
// the last result; every earlier result is torn down. Each set-up starts
// from a collected heap, so a collection the previous one left owing is
// not charged to it.
func timeRepeated[T any](n int, setup func() (T, error), teardown func(T) error) (T, float64, error) {
	var zero T
	durs := make([]float64, 0, n)
	var last T
	for i := 0; i < n; i++ {
		runtime.GC()
		start := time.Now()
		v, err := setup()
		if err != nil {
			return zero, 0, err
		}
		durs = append(durs, time.Since(start).Seconds())
		if i < n-1 {
			if err := teardown(v); err != nil {
				return zero, 0, err
			}
			continue
		}
		last = v
	}
	return last, quantile(durs, 0.5), nil
}

// quantile is the nearest-rank q-quantile of xs (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// heapInuseMiB reports the heap the server retains after its timed
// phase: one epoch GC pass (what seqd's 5 s GC loop runs) drops view
// generations and page versions no reader pins, then a Go GC.
func heapInuseMiB(srv *server.Server) float64 {
	srv.GCOnce()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapInuse) / (1 << 20)
}

// runtimeSample is a point-in-time reading of the Go runtime counters
// the validity metrics are derived from.
type runtimeSample struct {
	at         time.Time
	gcCycles   uint64
	allocBytes uint64
}

var runtimeMetricNames = []string{"/gc/cycles/total:gc-cycles", "/gc/heap/allocs:bytes"}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{at: time.Now(), gcCycles: s[0].Value.Uint64(), allocBytes: s[1].Value.Uint64()}
}

// allocBytes reads the cumulative heap allocation counter.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// runtimeRates sets the GC and allocation rates between two samples.
func runtimeRates(m map[string]float64, from, to runtimeSample) {
	secs := to.at.Sub(from.at).Seconds()
	m["runtime.gc_cycles_per_s"] = ratio(float64(to.gcCycles-from.gcCycles), secs)
	m["runtime.alloc_mb_per_s"] = ratio(float64(to.allocBytes-from.allocBytes)/(1<<20), secs)
}
