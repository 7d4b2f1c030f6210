package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"

	"repro/internal/engine"
	"repro/internal/engine/inmem"
	"repro/internal/engine/planner"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/server"
)

// record is one request of the traced run, with the span tree the daemon
// echoed and the client's own observations.
type record struct {
	Class      string  `json:"class"`
	LatencyMS  float64 `json:"latency_ms"`
	TTFPMS     float64 `json:"ttfp_ms,omitempty"`
	Bytes      int64   `json:"bytes"`
	Pairs      uint64  `json:"pairs"`
	Engine     string  `json:"engine,omitempty"`
	Cached     bool    `json:"cached"`
	AllocBytes uint64  `json:"alloc_bytes"`
	GCs        uint32  `json:"gc_cycles"`
	// Spans is the echoed span tree with self times (nil for appends,
	// which the daemon does not trace).
	Spans []*span `json:"spans,omitempty"`
}

// span is one echoed span with its self time: its duration minus the part
// of its interval that its children cover.
type span struct {
	Name     string           `json:"name"`
	StartMS  float64          `json:"start_ms"`
	DurMS    float64          `json:"dur_ms"`
	SelfMS   float64          `json:"self_ms"`
	Counters map[string]int64 `json:"counters,omitempty"`
	Children []*span          `json:"children,omitempty"`
}

func convertTrace(t *obs.TraceDTO) []*span {
	if t == nil {
		return nil
	}
	return convertSpans(t.Spans)
}

func convertSpans(in []*obs.SpanDTO) []*span {
	var out []*span
	for _, d := range in {
		s := &span{Name: d.Name, StartMS: d.StartMS, DurMS: d.DurMS, Counters: d.Counters, Children: convertSpans(d.Children)}
		s.SelfMS = d.DurMS - covered(d)
		out = append(out, s)
	}
	return out
}

// covered is the length of the union of d's child intervals, clipped to d.
func covered(d *obs.SpanDTO) float64 {
	type iv struct{ lo, hi float64 }
	var ivs []iv
	end := d.StartMS + d.DurMS
	for _, c := range d.Children {
		lo, hi := max(c.StartMS, d.StartMS), min(c.StartMS+c.DurMS, end)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	total, reach := 0.0, d.StartMS
	for _, v := range ivs {
		lo := max(v.lo, reach)
		if v.hi > lo {
			total += v.hi - lo
			reach = v.hi
		}
	}
	return total
}

// spanDurs collects the durations of every span with the given name in the
// records of the listed classes (all classes when none are listed).
func (s *session) spanDurs(name string, classes ...string) []float64 {
	var out []float64
	var walk func([]*span)
	walk = func(ss []*span) {
		for _, sp := range ss {
			if sp.Name == name {
				out = append(out, sp.DurMS)
			}
			walk(sp.Children)
		}
	}
	for _, r := range s.records {
		if len(classes) == 0 || slices.Contains(classes, r.Class) {
			walk(r.Spans)
		}
	}
	return out
}

// timed runs f and records its wall time in ms under name.
func (s *session) timed(name string, f func() error) (float64, error) {
	t0 := time.Now()
	err := f()
	ms := durMS(time.Since(t0))
	if err != nil {
		return ms, fmt.Errorf("%s: %w", name, err)
	}
	s.direct[name] = append(s.direct[name], ms)
	return ms, nil
}

// directAppend lands the batch an HTTP append just sent on the scratch
// dataset "wd" through Service.Append, registered afresh every
// scratchBatches appends so that no merge runs.
func (s *session) directAppend(batch []geom.Element, httpMS float64) {
	ctx := context.Background()
	svc := s.d.svc
	if s.directAppends%scratchBatches == 0 {
		if _, err := svc.AddDataset(ctx, "wd", clone(s.in.b[:min(appendBatch, len(s.in.b))])); err != nil {
			s.errs = append(s.errs, "register wd: "+err.Error())
			return
		}
	}
	s.directAppends++
	ms, err := s.timed("service_append_ms", func() error {
		_, err := svc.Append(ctx, "wd", batch)
		return err
	})
	if err == nil {
		s.direct["http_minus_service_append_ms"] = append(s.direct["http_minus_service_append_ms"], httpMS-ms)
	}
}

// discard is the emit of direct streaming calls.
func discard(geom.Pair) error { return nil }

// directStream runs Service.JoinStream with a discarding emit, traced when
// trace is set, and checks the pair count.
func (s *session) directStream(algo string, trace bool) func() error {
	return func() error {
		ctx := context.Background()
		if trace {
			ctx = obs.NewContext(ctx, obs.New("direct"))
		}
		n := uint64(0)
		_, err := s.d.svc.JoinStream(ctx, "a", "b", server.JoinParams{NoCache: true, Algorithm: algo}, func(geom.Pair) error {
			n++
			return nil
		})
		if err == nil && n != s.want().Pairs {
			err = fmt.Errorf("%w: %s streamed %d pairs, want %d", errWrongOutput, algo, n, s.want().Pairs)
		}
		return err
	}
}

// traced runs the direct layer calls after the traced window, fills the
// per-layer metrics and writes the span trees and timings to one JSON file.
func (s *session) traced(m map[string]metric, buildMS float64) error {
	ctx := context.Background()
	svc := s.d.svc
	cat := svc.Catalog()
	st, err := s.d.stats()
	if err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	sources := map[string]string{}
	set := func(name string, v float64, unit, source string) {
		m[name] = metric{v, unit}
		sources[name] = source
	}

	// HTTP overheads: the same uncached request through HTTP and through
	// the service call the handler makes, back to back.
	count := joinBody{A: "a", B: "b", NoCache: true}
	for i := 0; i < s.o.reps; i++ {
		r, err := s.d.join(s.w.request(classStream), s.want())
		if !s.checked(classStream, err) {
			continue
		}
		direct, err := s.timed("service_joinstream_ms", s.directStream("", true))
		if err != nil {
			return err
		}
		s.direct["http_minus_service_stream_ms"] = append(s.direct["http_minus_service_stream_ms"], durMS(r.latency)-direct)
		if r, err = s.d.join(count, s.want()); !s.checked(classCount, err) {
			continue
		}
		direct, err = s.timed("service_join_ms", func() error {
			out, err := svc.Join(obs.NewContext(ctx, obs.New("direct")), "a", "b", server.JoinParams{NoCache: true})
			if err == nil && out.Summary.Results != s.want().Pairs {
				err = fmt.Errorf("%w: join %d pairs, want %d", errWrongOutput, out.Summary.Results, s.want().Pairs)
			}
			return err
		})
		if err != nil {
			return err
		}
		s.direct["http_minus_service_count_ms"] = append(s.direct["http_minus_service_count_ms"], durMS(r.latency)-direct)
	}
	set("http.stream_overhead_ms", median(s.direct["http_minus_service_stream_ms"]), "ms", "median over back-to-back pairs of (stream request latency - traced Service.JoinStream with a discarding emit)")
	set("http.count_overhead_ms", median(s.direct["http_minus_service_count_ms"]), "ms", "median over back-to-back pairs of (count request latency - traced Service.Join)")
	var bytes int64
	var pairs uint64
	for _, r := range s.records {
		if r.Class == classStream {
			bytes += r.Bytes
			pairs += r.Pairs
		}
	}
	set("http.bytes_per_pair", float64(bytes)/float64(max(pairs, 1)), "B", "stream response bytes / pairs over the recorded stream requests")
	set("http.append_overhead_ms", median(s.direct["http_minus_service_append_ms"]), "ms", "median over appends of (HTTP append latency - Service.Append of the same batch on scratch dataset wd)")
	set("catalog.append_ms", median(s.direct["service_append_ms"]), "ms", "median Service.Append of one batch on scratch dataset wd")

	joins := []string{classStream, classAuto, classCount, classReplay}
	set("service.plan_ms", median(s.spanDurs("plan")), "ms", "median 'plan' span over traced join requests")
	set("service.stream_emit_ms", median(s.spanDurs("stream-emit", classStream)), "ms", "median 'stream-emit' span over stream requests")
	set("pool.wait_ms.p90", percentile(s.spanDurs("admission-wait"), 0.9), "ms", "p90 'admission-wait' span over traced join requests")
	set("cache.hit_ratio", float64(s.replayHits)/float64(max(s.replays, 1)), "ratio", "cached:true trailers / recorded replay requests")
	set("cache.replay_ms", median(s.spanDurs("replay", classReplay)), "ms", "median 'replay' span over replay requests")
	set("catalog.acquire_ms", median(s.spanDurs("catalog")), "ms", "median 'catalog' span over traced join requests")
	set("catalog.delta_join_ms", median(s.spanDurs("delta-join")), "ms", "median 'delta-join' span over traced join requests (0: no delta)")
	set("catalog.build_ms", buildMS, "ms", "build_ms of the registration responses of a plus b")
	set("catalog.merges", float64(st.Catalog.Merges), "count", "/stats catalog.merges after the traced window")

	picks := map[string]bool{}
	for _, r := range s.records {
		if r.Class == classAuto {
			picks[r.Engine] = true
		}
	}
	set("planner.distinct_picks", float64(len(picks)), "count", "distinct engines auto requests resolved to in the traced window")
	var alloc uint64
	var gcs uint32
	var nj int
	for _, r := range s.records {
		if slices.Contains(joins, r.Class) {
			alloc += r.AllocBytes
			gcs += r.GCs
			nj++
		}
	}
	set("process.alloc_mb_per_join", float64(alloc)/float64(max(nj, 1))/(1<<20), "MB", "mean runtime.MemStats.TotalAlloc delta per recorded join request (client included)")
	set("process.gc_cycles", float64(gcs)/float64(max(nj, 1)), "1/join", "mean runtime.MemStats.NumGC delta per recorded join request")

	// Catalog calls.
	for i := 0; i < s.o.reps; i++ {
		if _, err := s.timed("catalog_snapshot_ms", func() error {
			if _, _, _, _, err := cat.Snapshot("a"); err != nil {
				return err
			}
			_, _, _, _, err := cat.Snapshot("b")
			return err
		}); err != nil {
			return err
		}
	}
	set("catalog.snapshot_ms", median(s.direct["catalog_snapshot_ms"]), "ms", "median Catalog.Snapshot(a) + Catalog.Snapshot(b)")
	delta := make([]geom.Element, min(server.DefaultDeltaMaxElements, len(s.in.b)))
	for i := range delta {
		delta[i] = geom.Element{ID: 1<<40 + uint64(i), Box: s.in.b[i].Box}
	}
	for i := 0; i < 3; i++ {
		if _, err := svc.AddDataset(ctx, "m", clone(s.in.a)); err != nil {
			return fmt.Errorf("register m: %w", err)
		}
		if _, err := cat.Append("m", delta); err != nil {
			return err
		}
		if _, err := s.timed("catalog_merge_ms", func() error {
			_, err := cat.MergeDelta(ctx, "m")
			return err
		}); err != nil {
			return err
		}
	}
	set("catalog.merge_ms", median(s.direct["catalog_merge_ms"]), "ms", "median Catalog.MergeDelta of a copy of a with a threshold-size delta")

	// Planner calls.
	sa, _, err := cat.DatasetStats("a")
	if err != nil {
		return err
	}
	sb, _, err := cat.DatasetStats("b")
	if err != nil {
		return err
	}
	pcfg := planner.Config{PrebuiltTransformers: true, ShardWorkers: 1}
	var planUS []float64
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		planner.Plan(sa, sb, pcfg)
		planUS = append(planUS, float64(time.Since(t0))/float64(time.Microsecond))
	}
	s.direct["planner_plan_us"] = planUS
	set("planner.plan_us", median(planUS), "us", "median planner.Plan on Catalog.DatasetStats of a and b")
	var regret []float64
	for i := 0; i < s.o.reps; i++ {
		auto, err := s.timed("service_auto_ms", s.directStream(server.AlgorithmAuto, false))
		if err != nil {
			return err
		}
		best := 0.0
		for _, e := range []string{engine.Transformers, engine.InMem, engine.Grid} {
			ms, err := s.timed("service_"+e+"_ms", s.directStream(e, false))
			if err != nil {
				return err
			}
			if best == 0 || ms < best {
				best = ms
			}
		}
		regret = append(regret, auto/best)
	}
	s.direct["planner_regret"] = regret
	set("planner.regret", median(regret), "ratio", "median of Service.JoinStream auto time / fastest of transformers, inmem, grid run back to back")

	if err := s.engineLayer(ctx, set); err != nil {
		return err
	}

	// Trace overhead at the service: the same call with and without a trace.
	for i := 0; i < s.o.reps; i++ {
		if _, err := s.timed("service_untraced_ms", s.directStream("", false)); err != nil {
			return err
		}
		if _, err := s.timed("service_traced_ms", s.directStream("", true)); err != nil {
			return err
		}
	}
	un := median(s.direct["service_untraced_ms"])
	set("obs.trace_overhead_pct", (median(s.direct["service_traced_ms"])/un-1)*100, "%", "Service.JoinStream median with an obs trace in context vs without")

	return s.writeTrace(m, sources)
}

// engineLayer times the engines on the base elements of "a" and "b", the
// transformers engine on the catalog's prebuilt indexes.
func (s *session) engineLayer(ctx context.Context, set func(string, float64, string, string)) error {
	cat := s.d.svc.Catalog()
	ha, err := cat.Acquire(ctx, "a", 0)
	if err != nil {
		return err
	}
	defer ha.Release()
	hb, err := cat.Acquire(ctx, "b", 0)
	if err != nil {
		return err
	}
	defer hb.Release()
	baseA, _, _ := cat.DeltaView(ha)
	baseB, _, _ := cat.DeltaView(hb)
	pre := engine.Options{Parallelism: 1, Concurrent: true, Prebuilt: &engine.Prebuilt{A: ha.Index.Core(), B: hb.Index.Core()}}
	discardOpt := pre
	discardOpt.DiscardPairs = true

	last := map[string]engine.Stats{}
	// measure times one engine call; engines that reorder their inputs get
	// copies made before the clock starts. A forced collection first leaves
	// no call to pay for the garbage of the one before it.
	measure := func(name string, copies bool, f func(a, b []geom.Element) (*engine.Result, error)) error {
		var a, b []geom.Element
		if copies {
			a, b = clone(baseA), clone(baseB)
		}
		runtime.GC()
		var res *engine.Result
		_, err := s.timed(name, func() error {
			var err error
			res, err = f(a, b)
			return err
		})
		if err == nil {
			last[name] = res.Stats
		}
		return err
	}
	// The three transformers arms that the overheads subtract run in a
	// rotating order, so that none always runs first or last in a rep.
	arms := []func() error{
		func() error {
			return measure("transformers_discard_ms", false, func(_, _ []geom.Element) (*engine.Result, error) {
				return engine.Run(ctx, engine.Transformers, nil, nil, discardOpt)
			})
		},
		func() error {
			return measure("transformers_collect_ms", false, func(_, _ []geom.Element) (*engine.Result, error) {
				return engine.Run(ctx, engine.Transformers, nil, nil, pre)
			})
		},
		func() error {
			return measure("transformers_stream_ms", false, func(_, _ []geom.Element) (*engine.Result, error) {
				return engine.RunStream(ctx, engine.Transformers, nil, nil, pre, discard)
			})
		},
	}
	for i := 0; i < s.o.reps; i++ {
		var errs []error
		for k := range arms {
			errs = append(errs, arms[(i+k)%len(arms)]())
		}
		err := errors.Join(append(errs,
			measure("inmem_discard_ms", true, func(a, b []geom.Element) (*engine.Result, error) {
				return engine.Run(ctx, engine.InMem, a, b, engine.Options{Parallelism: 1, DiscardPairs: true})
			}),
			measure("grid_discard_ms", true, func(a, b []geom.Element) (*engine.Result, error) {
				return engine.Run(ctx, engine.Grid, a, b, engine.Options{Parallelism: 1, DiscardPairs: true})
			}),
		)...)
		if err != nil {
			return err
		}
	}
	td := median(s.direct["transformers_discard_ms"])
	set("engine.emit_overhead_ms", median(s.direct["transformers_stream_ms"])-td, "ms", "median engine.RunStream (no-op emit) - median engine.Run DiscardPairs, transformers on prebuilt indexes; both run one kernel path today")
	set("engine.collect_overhead_ms", median(s.direct["transformers_collect_ms"])-td, "ms", "median engine.Run collected - median engine.Run DiscardPairs, transformers on prebuilt indexes")
	for _, e := range []string{engine.Transformers, engine.InMem, engine.Grid} {
		st := last[e+"_discard_ms"]
		set(e+".join_ms", median(s.direct[e+"_discard_ms"]), "ms", "median engine.Run DiscardPairs on the base elements")
		set(e+".candidates_per_pair", float64(st.Candidates)/float64(max(st.Refinements, 1)), "ratio", "Stats.Candidates / Stats.Refinements")
	}
	set("transformers.pages_read", float64(last["transformers_discard_ms"].PagesRead), "count", "Stats.PagesRead of engine.Run on the prebuilt indexes")

	var replicated int
	for i := 0; i < s.o.reps; i++ {
		ca, cb := clone(baseA), clone(baseB)
		var p *inmem.Partitioned
		if _, err := s.timed("inmem_partition_ms", func() error {
			p = inmem.Partition(ca, cb, inmem.Config{})
			return nil
		}); err != nil {
			return err
		}
		var st inmem.Stats
		if _, err := s.timed("inmem_sweep_ms", func() error {
			st = p.Join(inmem.JoinConfig{Parallelism: 1}, func(uint64, uint64) {})
			return nil
		}); err != nil {
			return err
		}
		replicated = st.ReplicatedA + st.ReplicatedB
	}
	set("inmem.partition_ms", median(s.direct["inmem_partition_ms"]), "ms", "median inmem.Partition on copies of the base elements")
	set("inmem.sweep_ms", median(s.direct["inmem_sweep_ms"]), "ms", "median (*inmem.Partitioned).Join with a no-op emit")
	set("inmem.replicated", float64(replicated), "count", "inmem Stats.ReplicatedA + ReplicatedB")
	return nil
}

// writeTrace writes the traced run's requests, outside timings and metrics
// (each with the spans or calls it came from) to one JSON file.
func (s *session) writeTrace(m map[string]metric, sources map[string]string) error {
	type sourced struct {
		metric
		Source string `json:"source"`
	}
	doc := struct {
		Workload string               `json:"workload"`
		Seed     int64                `json:"seed"`
		Scale    float64              `json:"scale"`
		Metrics  map[string]sourced   `json:"metrics"`
		Outside  map[string][]float64 `json:"outside_ms"`
		Requests []record             `json:"requests"`
	}{s.w.name, s.o.seed, s.o.scale, map[string]sourced{}, s.direct, s.records}
	for k, v := range m {
		doc.Metrics[k] = sourced{v, sources[k]}
	}
	path := s.o.traceOut
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
