package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/obs"
)

// listedMetrics reads the metric names BENCHMARK.json promises for a mode.
func listedMetrics(t *testing.T, key string) []string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec map[string]json.RawMessage
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var ms []struct{ Name, Unit string }
	if err := json.Unmarshal(spec[key], &ms); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range ms {
		names = append(names, m.Name+" "+m.Unit)
	}
	sort.Strings(names)
	return names
}

// TestSmoke runs every workload at reduced size in both modes: every
// response must pass the oracle, and every metric BENCHMARK.json lists must
// be reported with its unit.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			name := w.name + map[bool]string{false: "/end-to-end", true: "/traced"}[trace]
			t.Run(name, func(t *testing.T) {
				o := options{workload: w.name, seed: 7, seconds: 0.3, trace: trace, scale: 0.02, setups: 2, reps: 1,
					traceOut: filepath.Join(t.TempDir(), "trace.json")}
				if trace {
					o.setups = 1
				}
				var out strings.Builder
				res, err := run(o, &out)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v failed=%d attempted=%d\n%s", res.Correct, res.Failed, res.Attempted, out.String())
				}
				var got []string
				for k, m := range res.Metrics {
					got = append(got, k+" "+m.Unit)
				}
				sort.Strings(got)
				key := map[bool]string{false: "end_to_end", true: "per_layer"}[trace]
				if want := listedMetrics(t, key); strings.Join(got, ",") != strings.Join(want, ",") {
					t.Fatalf("metrics\n got %v\nwant %v", got, want)
				}
				if !trace {
					for _, line := range []string{"stream_ms.p90", "auto_ms.p90", "append_ms.p90", "failed_frac"} {
						if !strings.Contains(out.String(), line) {
							t.Errorf("report lacks %s:\n%s", line, out.String())
						}
					}
					return
				}
				raw, err := os.ReadFile(o.traceOut)
				if err != nil {
					t.Fatal(err)
				}
				var doc struct {
					Metrics  map[string]struct{ Source string }
					Requests []record
				}
				if err := json.Unmarshal(raw, &doc); err != nil {
					t.Fatal(err)
				}
				traced := 0
				for _, r := range doc.Requests {
					if r.Spans != nil {
						traced++
					}
				}
				if len(doc.Metrics) != len(res.Metrics) || traced == 0 {
					t.Fatalf("trace file has %d metrics and %d requests with spans", len(doc.Metrics), traced)
				}
			})
		}
	}
}

// TestSelfTime checks that a span's self time excludes the union of its
// children, counting overlapping children once and clipping to the span.
func TestSelfTime(t *testing.T) {
	d := &obs.SpanDTO{StartMS: 10, DurMS: 10, Children: []*obs.SpanDTO{
		{StartMS: 11, DurMS: 3}, // 11-14
		{StartMS: 12, DurMS: 4}, // 12-16, overlaps the first
		{StartMS: 18, DurMS: 5}, // 18-23, clipped to 20
	}}
	if got := convertSpans([]*obs.SpanDTO{d})[0].SelfMS; got != 3 {
		t.Fatalf("self time %v, want 3", got)
	}
}
