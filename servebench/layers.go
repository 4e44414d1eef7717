package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"time"

	"polardraw/internal/core"
	"polardraw/internal/geom"
	"polardraw/internal/telemetry"
)

// coreStats is the single-threaded replay of a run's strokes through
// core.Tracker.Stream(): the decode kernel with no session tier around
// it, and the baseline the serving numbers compare against.
type coreStats struct {
	stepUs, finUs, snapUs, snapBytes, restUs []float64
	pushNs                                   int64
	samples                                  int
	hits, misses                             uint64
	activeMeans                              []float64
	mismatches                               int
}

// replayCore pushes every stroke reps times, one sample per Push,
// timing each Push that closes a window, every snapshot taken at the
// shard servers' checkpoint cadence and its restore, and Finalize.
func replayCore(in *inputs, reps, every int) coreStats {
	var cs coreStats
	tr := core.New(in.cfg)
	for rep := 0; rep < reps; rep++ {
		for _, s := range in.strokes {
			st := tr.Stream()
			st.OnCommit = func(int, geom.Polyline) {} // as every serving session does
			for _, smp := range s.samples {
				before := st.Windows()
				t0 := time.Now()
				_ = st.Push(smp)
				d := time.Since(t0)
				cs.pushNs += int64(d)
				cs.samples++
				w := st.Windows()
				if w == before {
					continue
				}
				cs.stepUs = append(cs.stepUs, float64(d)/1e3)
				if w%every != 0 {
					continue
				}
				t0 = time.Now()
				state, err := st.Snapshot()
				cs.snapUs = append(cs.snapUs, float64(time.Since(t0))/1e3)
				if err != nil {
					cs.mismatches++
					continue
				}
				cs.snapBytes = append(cs.snapBytes, float64(len(state)))
				t0 = time.Now()
				if _, err := tr.RestoreStream(state); err != nil {
					cs.mismatches++
				}
				cs.restUs = append(cs.restUs, float64(time.Since(t0))/1e3)
			}
			ds := st.DecodeStats()
			cs.hits += ds.StencilHits
			cs.misses += ds.StencilMisses
			cs.activeMeans = append(cs.activeMeans, ds.ActiveMean)
			t0 := time.Now()
			res, err := st.Finalize()
			cs.finUs = append(cs.finUs, float64(time.Since(t0))/1e3)
			if err != nil || !reflect.DeepEqual(res, s.ref) {
				cs.mismatches++
			}
		}
	}
	return cs
}

// spanStats splits a traced run's spans (those starting inside the
// measured interval) by name, with each span's self time.
type spanStats struct {
	dur  [numSpanNames][]float64 // µs
	self [numSpanNames][]float64 // µs: duration minus what children cover
}

func collectSpans(spans []span, from, to int64) *spanStats {
	kids := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], [2]int64{s.start, s.end})
		}
	}
	ss := &spanStats{}
	for _, s := range spans {
		if s.start < from || s.start >= to {
			continue
		}
		d := float64(s.end-s.start) / 1e3
		ss.dur[s.name] = append(ss.dur[s.name], d)
		ss.self[s.name] = append(ss.self[s.name], d-float64(covered(s, kids[s.id]))/1e3)
	}
	return ss
}

// covered is how much of s's interval the union of ivs covers, in ns.
func covered(s span, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total, end int64 = 0, s.start
	for _, iv := range ivs {
		lo, hi := max(iv[0], end), min(iv[1], s.end)
		if hi > lo {
			total += hi - lo
			end = hi
		}
	}
	return total
}

// writeSpans saves the trace as one JSON object per line.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	for _, s := range spans {
		fmt.Fprintf(bw, `{"id":%d,"parent":%d,"name":%q,"start_ns":%d,"end_ns":%d,"stroke":%q}`+"\n",
			s.id, s.parent, spanNames[s.name], s.start, s.end, s.stroke)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// histMean merges the named histogram across registries.
func histMean(name string, regs ...*telemetry.Registry) float64 {
	var h telemetry.HistogramSnapshot
	for _, reg := range regs {
		h.Merge(reg.Snapshot().Histograms[name])
	}
	return h.Mean()
}

// layerMetrics derives the per-layer numbers of a traced run. A layer
// the workload's path does not contain reports 0 (see NOTES.md).
func layerMetrics(r *run, st *stack, cs coreStats, cpuUsPerSample float64) map[string]float64 {
	tt := st.traced
	off := int64(r.base.Sub(tt.tr.base))
	ss := collectSpans(tt.tr.spans, r.winStart+off, r.winEnd+off)
	// Finalize and Handoff calls are timed where the end-to-end metrics
	// time them: in the pause on the closed loops.
	ops := collectSpans(tt.tr.spans, r.opStart+off, r.opEnd+off)
	m := map[string]float64{}
	us := func(xs []float64, q float64) float64 { return zeroNaN(quantile(xs, q)) }
	ms := func(xs []float64, q float64) float64 { return zeroNaN(quantile(xs, q) / 1e3) }

	m["core.window_step_us_p50"] = us(cs.stepUs, 0.5)
	m["core.window_step_us_p99"] = us(cs.stepUs, 0.99)
	m["core.single_thread_samples_per_s"] = float64(cs.samples) / (float64(cs.pushNs) / 1e9)
	m["core.finalize_us_p50"] = us(cs.finUs, 0.5)
	m["core.snapshot_us_p50"] = us(cs.snapUs, 0.5)
	m["core.snapshot_bytes_mean"] = zeroNaN(mean(cs.snapBytes))
	m["core.restore_us_p50"] = us(cs.restUs, 0.5)
	m["core.stencil_lookups"] = float64(cs.hits + cs.misses)
	m["core.stencil_hit_ratio"] = float64(cs.hits) / math.Max(float64(cs.hits+cs.misses), 1)
	m["core.active_cells_mean"] = zeroNaN(mean(cs.activeMeans))

	serverSide := append([]*telemetry.Registry{st.tel}, st.serverTel...)
	m["manager.queue_depth_mean"] = zeroNaN(histMean("polardraw_session_queue_depth", serverSide...))
	peak := 0
	for _, n := range r.liveLog {
		peak = max(peak, n)
	}
	m["manager.sessions_live_peak"] = float64(peak)
	if r.w.remote {
		m["rpc.dispatch_us_p50"] = us(ss.dur[spanBackendDispatch], 0.5)
		m["rpc.finalize_rtt_ms_p50"] = ms(ops.dur[spanBackendFinalize], 0.5)
		m["rpc.export_ms_p50"] = ms(ops.dur[spanBackendExport], 0.5)
		m["rpc.restore_ms_p50"] = ms(ops.dur[spanBackendRestore], 0.5)
		samples := float64(max(r.samplesAll, 1))
		m["rpc.bytes_per_sample_tx"] = float64(tt.wire.toServer.Load()) / samples
		m["rpc.bytes_per_sample_rx"] = float64(tt.wire.toClient.Load()) / samples
		m["rpc.batch_samples_mean"] = zeroNaN(histMean("polardraw_rpc_batch_samples", st.tel))
		m["journal.append_us_p50"] = us(ss.dur[spanJournalAppend], 0.5)
		m["journal.save_checkpoint_us_p50"] = us(ss.dur[spanJournalCheckpoint], 0.5)
		m["journal.appends"] = float64(len(ss.dur[spanJournalAppend]))
		m["journal.lost"] = float64(tt.journal.Lost())
		m["rpc.redials"] = float64(st.redials())
		m["rpc.samples_lost"] = float64(st.lost())
	} else {
		m["manager.dispatch_us_p50"] = us(ss.dur[spanBackendDispatch], 0.5)
		m["manager.dispatch_us_p99"] = us(ss.dur[spanBackendDispatch], 0.99)
		m["manager.finalize_us_p50"] = us(ops.dur[spanBackendFinalize], 0.5)
	}
	m["router.dispatch_self_us_p50"] = us(ss.self[spanRouterDispatch], 0.5)
	samples := float64(max(r.samplesAll, 1))
	m["router.shed_ratio"] = float64(st.t.SamplesShed()) / samples
	m["events.delivered_per_sample"] = float64(r.eventsSeen) / samples
	dropped := float64(st.t.EventsDropped())
	m["events.dropped_ratio"] = dropped / math.Max(float64(r.eventsSeen)+dropped, 1)
	lag := make([]float64, len(r.reportLagNs))
	for i, d := range r.reportLagNs {
		lag[i] = float64(d) / 1e6
	}
	m["loadgen.lag_p99_ms"] = zeroNaN(quantile(lag, 0.99))
	m["loadgen.offered_samples_per_s"] = float64(r.offeredWin) / (float64(r.winEnd-r.winStart) / 1e9)
	m["trace.cpu_us_per_sample"] = cpuUsPerSample
	m["trace.spans"] = float64(len(tt.tr.spans))
	for _, spec := range perLayer {
		if _, ok := m[spec.name]; !ok {
			m[spec.name] = 0 // layer not on this workload's path
		}
	}
	return m
}

func zeroNaN(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}

// spanFile names a workload's trace file. Each traced run of the
// workload replaces it, so a checkout keeps one trace per workload.
func spanFile(dir, workload string) string {
	return filepath.Join(dir, workload+".spans.jsonl")
}
