// Command servebench is the serving benchmark: it drives the PolarDraw
// serving stack at the serving defaults (BeamTopK=192, CommitLag=64,
// 50 ms windows) with one of three workloads, checks every decoded
// stroke against a single-threaded reference decode, and prints every
// metric by name and unit. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Run it from the root of a checkout:
//
//	bash servebench/run.sh --workload live-ink --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics of a run through the public
// polardraw API. --trace 1 runs the same workload over the same layers
// composed from the internal constructors, with a timing decorator at
// every layer boundary, and reports the per-layer metrics; the spans
// are written to --trace-dir. NOTES.md lists what each metric means,
// which end-to-end metric each layer metric should move, and the
// defects this benchmark exposes.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	mrand "math/rand/v2"
	"os"
	"runtime"
	"sort"
	"time"
)

// metricSpec names one reported metric.
type metricSpec struct{ name, unit, better string }

// endToEnd are the metrics a user of the tier sees, measured with
// tracing off.
var endToEnd = []metricSpec{
	{"point_latency_p50_ms", "ms", "lower"},
	{"point_latency_p90_ms", "ms", "lower"},
	{"finalize_latency_p50_ms", "ms", "lower"},
	{"finalize_latency_p75_ms", "ms", "lower"},
	{"handoff_p50_ms", "ms", "lower"},
	{"samples_per_s", "1/s", "higher"},
	{"cpu_us_per_sample", "us", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
	{"setup_s", "s", "lower"},
}

// unsteady are measured and printed but not reported in the result
// line: their run-to-run spread exceeds any bound the benchmark may
// set (see NOTES.md).
var unsteady = []metricSpec{
	{"point_latency_p99_ms", "ms", "lower"},
	{"finalize_latency_p90_ms", "ms", "lower"},
	{"finalize_latency_p99_ms", "ms", "lower"},
}

// perLayer are the traced run's metrics, one layer each.
var perLayer = []metricSpec{
	{"core.window_step_us_p50", "us", "lower"},
	{"core.window_step_us_p99", "us", "lower"},
	{"core.single_thread_samples_per_s", "1/s", "higher"},
	{"core.finalize_us_p50", "us", "lower"},
	{"core.snapshot_us_p50", "us", "lower"},
	{"core.snapshot_bytes_mean", "bytes", "lower"},
	{"core.restore_us_p50", "us", "lower"},
	{"core.stencil_hit_ratio", "ratio", "higher"},
	{"core.stencil_lookups", "count", "lower"},
	{"core.active_cells_mean", "count", "lower"},
	{"manager.dispatch_us_p50", "us", "lower"},
	{"manager.dispatch_us_p99", "us", "lower"},
	{"manager.finalize_us_p50", "us", "lower"},
	{"manager.queue_depth_mean", "count", "lower"},
	{"manager.sessions_live_peak", "count", "lower"},
	{"router.dispatch_self_us_p50", "us", "lower"},
	{"router.shed_ratio", "ratio", "lower"},
	{"journal.append_us_p50", "us", "lower"},
	{"journal.save_checkpoint_us_p50", "us", "lower"},
	{"journal.appends", "count", "lower"},
	{"journal.lost", "count", "lower"},
	{"events.delivered_per_sample", "ratio", "higher"},
	{"events.dropped_ratio", "ratio", "lower"},
	{"rpc.bytes_per_sample_tx", "bytes", "lower"},
	{"rpc.bytes_per_sample_rx", "bytes", "lower"},
	{"rpc.batch_samples_mean", "count", "higher"},
	{"rpc.dispatch_us_p50", "us", "lower"},
	{"rpc.finalize_rtt_ms_p50", "ms", "lower"},
	{"rpc.export_ms_p50", "ms", "lower"},
	{"rpc.restore_ms_p50", "ms", "lower"},
	{"rpc.redials", "count", "lower"},
	{"rpc.samples_lost", "count", "lower"},
	{"loadgen.lag_p99_ms", "ms", "lower"},
	{"loadgen.offered_samples_per_s", "1/s", "higher"},
	{"trace.cpu_us_per_sample", "us", "lower"},
	{"trace.spans", "count", "lower"},
}

// setupRepeats is how many times a run opens the stack to time set-up;
// the median is reported and the last stack opened carries the load.
const setupRepeats = 31

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	traceDir string
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: live-ink, backlog-drain or durable-wire")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed: picks the letters and the motion and reader seeds")
	flag.IntVar(&o.seconds, "seconds", 20, "length of the measured interval")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
	flag.StringVar(&o.traceDir, "trace-dir", ".bench_build/servebench/trace", "where the traced run writes its spans")
	flag.Parse()
	o.trace = trace == 1
	if trace != 0 && trace != 1 {
		fatal(errors.New("--trace must be 0 or 1"))
	}
	if o.seconds < 1 {
		fatal(errors.New("--seconds must be at least 1"))
	}
	w, err := findWorkload(o.workload)
	if err != nil {
		fatal(err)
	}
	res, err := bench(context.Background(), o, w, os.Stdout)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "servebench:", err)
	os.Exit(1)
}

// bench runs one workload once and returns its result line; progress
// and a readable metric table go to log.
func bench(ctx context.Context, o options, w *workload, log io.Writer) (*result, error) {
	seconds := time.Duration(o.seconds) * time.Second
	in, err := makeInputs(o.seed, baseStrokes)
	if err != nil {
		return nil, err
	}
	open := openStack
	if o.trace {
		open = openTracedStack
	}
	// Set-up is timed several times and the median reported; every
	// stack but the last is closed again untouched. Each is timed after
	// a collection, so the benchmark's own garbage (inputs, the stacks
	// opened before) is not collected on its clock.
	var setups []float64
	var st *stack
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		t0 := time.Now()
		s, err := open(ctx, in, w)
		if err != nil {
			return nil, fmt.Errorf("open: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupRepeats-1 {
			_, _ = s.t.Close(ctx)
			s.stop()
			continue
		}
		st = s
	}
	defer st.stop()

	r := &run{w: w, in: in, st: st, rng: mrand.New(mrand.NewPCG(o.seed, 0x706c616e))}
	r.setClock(seconds)
	if w.open {
		r.plan()
	} else {
		r.planRounds()
	}
	r.execute(ctx)
	out := r.check()
	cpu := out.e2e["cpu_us_per_sample"]

	res := &result{Metrics: map[string]metricValue{}}
	var specs []metricSpec
	values := map[string]float64{}
	if o.trace {
		cs := replayCore(in, 2, checkpointEvery)
		out.attempted += len(cs.finUs)
		out.fail(cs.mismatches, "core replay result not bit-identical to the reference")
		values = layerMetrics(r, st, cs, cpu)
		specs = perLayer
		if err := writeSpans(spanFile(o.traceDir, w.name), st.traced.tr.spans); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
	} else {
		for k, v := range out.e2e {
			values[k] = v
		}
		values["peak_rss_mb"] = peakRSSMB()
		values["setup_s"] = quantile(setups, 0.5)
		specs = endToEnd
		for _, spec := range specs {
			if math.IsNaN(values[spec.name]) {
				out.fail(1, "%s not measured", spec.name)
				values[spec.name] = 0
			}
		}
	}
	for _, spec := range specs {
		res.Metrics[spec.name] = metricValue{Value: values[spec.name], Unit: spec.unit}
	}
	res.Attempted, res.Failed = out.attempted, out.failed
	res.Correct = out.failed == 0
	report(log, w, o, out, res, specs)
	return res, nil
}

// report prints the run's metrics and problems in readable form.
func report(log io.Writer, w *workload, o options, out *outcome, res *result, specs []metricSpec) {
	fmt.Fprintf(log, "servebench: workload=%s seed=%d seconds=%d trace=%v\n", w.name, o.seed, o.seconds, o.trace)
	fmt.Fprintf(log, "samples measured: %d point latencies, %d finalize latencies, %d handoffs\n",
		out.counts["points"], out.counts["finalizes"], out.counts["handoffs"])
	fmt.Fprintf(log, "point events of handed-off strokes suppressed by the router: %d\n",
		out.counts["handoff_suppressed_points"])
	for _, spec := range specs {
		fmt.Fprintf(log, "  %-34s %14.4f %s\n", spec.name, res.Metrics[spec.name].Value, spec.unit)
	}
	if !o.trace {
		for _, spec := range unsteady {
			fmt.Fprintf(log, "  %-34s %14.4f %s (not steady enough to gate)\n", spec.name, out.e2e[spec.name], spec.unit)
		}
	}
	fmt.Fprintf(log, "error_rate: %d failed / %d attempted = %.6f\n",
		out.failed, out.attempted, float64(out.failed)/float64(max(out.attempted, 1)))
	sort.Strings(out.problems)
	for _, p := range out.problems {
		fmt.Fprintln(log, "  FAILED:", p)
	}
}
