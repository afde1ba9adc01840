// Command seqdbench is the repository's benchmark. It runs one named
// workload against an in-process seqd server (server.Server behind a
// loopback listener, as cmd/seqd runs it) loaded through wire.Client,
// checks every output, and prints each metric by name with its unit.
//
//	seqdbench -workload scan -seed 1 -seconds 10 -trace 0
//
// With -trace 0 it prints the end-to-end metrics, measured with tracing
// off. With -trace 1 it runs the same inputs again, times the calls into
// each layer's public functions from this package, and prints the
// per-layer metrics. The last line of standard output is one JSON object
// with the keys correct, attempted, failed and metrics. README.md in this
// directory explains the workloads and what each metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// e2eMetrics are printed by every -trace 0 run, in this order. A read
// workload's operation is a query; ingest's is an append. tail_ms is the
// p99 latency of a query and the p90 latency of an append, whose slowest
// percent is set by where the Go collector's cycles fall (see README.md).
var e2eMetrics = []struct{ name, unit string }{
	{"ops_per_s", "1/s"},
	{"rows_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"setup_s", "s"},
	{"heap_inuse_mb", "MiB"},
}

// layerMetrics are printed by every -trace 1 run, in this order. A layer
// a workload does not exercise reports 0.
var layerMetrics = []struct{ name, unit string }{
	{"wire.encode_ns_per_row", "ns/row"},
	{"wire.decode_ns_per_row", "ns/row"},
	{"wire.bytes_per_row", "B/row"},
	{"wire.delta_bytes_per_append", "B/append"},
	{"server.delta_frames_per_append", "frames/append"},
	{"algebra.delta_eval_us_per_append", "us/append"},
	{"server.exec_ms_p50", "ms"},
	{"server.queue_ms_p99", "ms"},
	{"server.outside_exec_frac", "frac"},
	{"server.session_query_us", "us"},
	{"server.append_us", "us"},
	{"parser.bind_us", "us"},
	{"core.optimize_us", "us"},
	{"core.rules_fired", "count/query"},
	{"core.join_plans_evaluated", "count/query"},
	{"core.candidates_costed", "count/query"},
	{"core.view_substitutions", "count/query"},
	{"planlint.verify_snapshot_us", "us"},
	{"core.parallel_k", "workers"},
	{"exec.run_us", "us"},
	{"exec.records_read_per_row", "records/row"},
	{"exec.alloc_bytes_per_row", "B/row"},
	{"storage.seq_pages_per_query", "pages/query"},
	{"storage.rand_pages_per_query", "pages/query"},
	{"storage.leaf_scan_ns_per_record", "ns/record"},
	{"disk.pool_hit_rate", "frac"},
	{"disk.pool_misses_per_query", "pages/query"},
	{"disk.pool_evictions_per_query", "pages/query"},
	{"disk.cold_scan_ns_per_page", "ns/page"},
	{"disk.wal_bytes_per_append", "B/append"},
	{"disk.append_us", "us"},
	{"matview.maintain_us_per_append", "us/append"},
	{"matview.stitches_per_append", "count/append"},
	{"matview.noops_per_append", "count/append"},
	{"matview.shrink_invalidate_per_append", "count/append"},
	{"matview.stitch_rows_per_append", "rows/append"},
	{"gen.late_p99_ms", "ms"},
	{"open_loop.append_p50_ms", "ms"},
	{"open_loop.append_p95_ms", "ms"},
	{"open_loop.delta_lag_p50_ms", "ms"},
	{"open_loop.delta_lag_p95_ms", "ms"},
	{"runtime.gc_cycles_per_s", "1/s"},
	{"runtime.alloc_mb_per_s", "MiB/s"},
	{"trace.overhead_frac", "frac"},
	{"trace.compile_us_per_query", "us/query"},
	{"trace.execute_us_per_query", "us/query"},
}

// runConfig is what a workload receives from the command line.
type runConfig struct {
	seed    int64
	measure time.Duration // length of the timed phase
	trace   bool
	work    string // scratch directory for databases and trace files
}

// report is a workload's outcome: the environment record, the operation
// counts, and the metric values by name.
type report struct {
	env       []string // "key=value", printed in order
	attempted int64
	failed    int64
	metrics   map[string]float64
}

func (r *report) addEnv(key string, value any) {
	r.env = append(r.env, fmt.Sprintf("%s=%v", key, value))
}

// workloads maps -workload names to their runners.
var workloads = map[string]func(runConfig) (*report, error){
	"scan":      func(c runConfig) (*report, error) { return runReads(c, scanSpec()) },
	"point":     func(c runConfig) (*report, error) { return runReads(c, pointSpec()) },
	"cold_scan": func(c runConfig) (*report, error) { return runReads(c, coldSpec()) },
	"ingest":    runIngest,
}

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "workload to run: scan, point, cold_scan or ingest")
		seed    = flag.Int64("seed", 1, "seed every input is derived from")
		seconds = flag.Float64("seconds", 10, "length of the timed phase in seconds")
		trace   = flag.Int("trace", 0, "0 = end-to-end metrics with tracing off; 1 = traced run with per-layer metrics")
		work    = flag.String("work", ".bench_build", "scratch directory for databases and trace files")
	)
	flag.Parse()
	runner, ok := workloads[*name]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "seqdbench: unknown workload %q (have %s)\n", *name, strings.Join(names, ", "))
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "seqdbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	dir, err := filepath.Abs(*work)
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "seqdbench: work directory: %v\n", err)
		return 1
	}
	cfg := runConfig{
		seed:    *seed,
		measure: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		work:    dir,
	}
	rep, err := runner(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "seqdbench: %s: %v\n", *name, err)
		return 1
	}
	if rep.attempted < 1 {
		fmt.Fprintf(os.Stderr, "seqdbench: %s attempted no operations\n", *name)
		return 1
	}
	env := append([]string{
		"workload=" + *name,
		fmt.Sprintf("seed=%d", *seed),
		fmt.Sprintf("trace=%d", *trace),
		fmt.Sprintf("nproc=%d", runtime.NumCPU()),
		fmt.Sprintf("gomaxprocs=%d", runtime.GOMAXPROCS(0)),
		"go=" + runtime.Version(),
	}, rep.env...)
	fmt.Println("env " + strings.Join(env, " "))

	defs := e2eMetrics
	if cfg.trace {
		defs = layerMetrics
	}
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v := rep.metrics[d.name]
		out[d.name] = metric{Value: v, Unit: d.unit}
		fmt.Printf("%-40s %14.6g %s\n", d.name, v, d.unit)
	}
	errRate := float64(rep.failed) / float64(rep.attempted)
	fmt.Printf("%-40s %14.6g %s (%d of %d operations failed or wrong)\n", "error_rate", errRate, "frac", rep.failed, rep.attempted)
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.failed == 0, rep.attempted, rep.failed, out})
	if err != nil {
		fmt.Fprintf(os.Stderr, "seqdbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}
