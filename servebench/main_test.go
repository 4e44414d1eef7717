package main

import (
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"polardraw/internal/core"
)

// tiny shrinks a workload to a few pens and short phases, keeping its
// topology and loop kind.
func tiny(w *workload) *workload {
	t := *w
	t.pens = 16
	t.roundPens, t.rounds = 16, 2
	t.warm = 500 * time.Millisecond
	t.handoffEvery = 100 * time.Millisecond
	return &t
}

// TestWorkloadsReportEveryMetric runs every workload at a tiny size,
// untraced and traced, and requires a correct run that reports every
// metric BENCHMARK.json declares, with its unit.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if decl.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, decl.Workloads[i].Name, w.name)
		}
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			want := decl.EndToEnd
			if trace {
				want = decl.PerLayer
			}
			o := options{seed: 7, seconds: 3, trace: trace, traceDir: t.TempDir()}
			var log strings.Builder
			res, err := bench(context.Background(), o, tiny(w), &log)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d\n%s",
					w.name, trace, res.Correct, res.Failed, res.Attempted, log.String())
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d",
					w.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.name, trace, m.Name, got, m.Unit)
				}
			}
		}
	}
}

// TestClosingSamplesMatchStreamTracker pins the latency probe's window
// indexing to core.StreamTracker: the tracker's window count must step
// exactly at each closing sample.
func TestClosingSamplesMatchStreamTracker(t *testing.T) {
	in, err := makeInputs(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range in.strokes {
		closing := map[int]bool{}
		for _, i := range s.closeIdx {
			closing[i] = true
		}
		st := core.New(in.cfg).Stream()
		for i, smp := range s.samples {
			before := st.Windows()
			if err := st.Push(smp); err != nil {
				t.Fatal(err)
			}
			if stepped := st.Windows() > before; stepped != closing[i] {
				t.Fatalf("stroke %q sample %d: window closed=%v, probe says %v", s.letter, i, stepped, closing[i])
			}
		}
		if st.Windows() != len(s.closeIdx) {
			t.Fatalf("stroke %q: tracker closed %d windows, probe found %d", s.letter, st.Windows(), len(s.closeIdx))
		}
	}
}
