package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"time"

	"repro/internal/geom"
)

// options are one run's settings. The flags in main.go set the first four;
// main.go fixes the rest, which only the smoke test reduces.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// scale multiplies the element counts (density preserved).
	scale float64
	// setups is how often the datasets are uploaded to fresh daemons; the
	// median is setup_s.
	setups int
	// reps is the repetition count of each direct layer call in the traced
	// run.
	reps     int
	traceOut string
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// session is one daemon loaded with a workload's inputs, plus everything
// the closed loop observed.
type session struct {
	o  options
	w  workload
	in *inputs
	d  *daemon
	// appended counts batches landed in "a", scratched those sent to the
	// scratch dataset "w".
	appended, scratched int
	attempted           int
	failed              int
	errs                []string
	// samples holds latencies in ms per class, plus "ttfp" for streams.
	samples map[string][]float64
	picks   map[string]int
	// replays and replayHits count recorded replay requests and those the
	// cache served.
	replays, replayHits int
	// records keeps every recorded request of a traced run.
	records []record
	// direct holds the traced run's outside timings by name.
	direct map[string][]float64
	// directAppends counts appends to the scratch dataset "wd".
	directAppends int
}

// want is the reference for the current contents of "a".
func (s *session) want() digest {
	if s.appended == 0 {
		return s.in.base
	}
	return s.in.afterBatch[s.appended-1]
}

// op sends one request of the class, checks it, and records its latency
// when rec is set.
func (s *session) op(class string, rec bool) {
	var ms0 runtime.MemStats
	if s.o.trace && rec {
		runtime.ReadMemStats(&ms0)
	}
	var r reply
	var err error
	var batch []geom.Element
	switch {
	case class == classAppend && s.w.appendTo == "a":
		batch = s.in.batches[s.appended]
		if r, err = s.d.appendTo("a", batch); err == nil {
			s.appended++
		}
	case class == classAppend:
		batch = s.in.batches[s.scratched%len(s.in.batches)]
		if s.scratched%scratchBatches == 0 {
			_, err = s.d.register(scratchBody(s.in))
		}
		if err == nil {
			r, err = s.d.appendTo(s.w.appendTo, batch)
		}
		s.scratched++
	default:
		r, err = s.d.join(s.w.request(class), s.want())
	}
	if !s.checked(class, err) || !rec {
		return
	}
	ms := durMS(r.latency)
	s.samples[class] = append(s.samples[class], ms)
	switch class {
	case classStream:
		s.samples["ttfp"] = append(s.samples["ttfp"], durMS(r.ttfp))
	case classAuto:
		s.picks[r.engine]++
	case classReplay:
		s.replays++
		if r.cached {
			s.replayHits++
		}
	}
	if s.o.trace {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		s.records = append(s.records, record{
			Class: class, LatencyMS: ms, TTFPMS: durMS(r.ttfp), Bytes: r.bytes,
			Pairs: r.got.Pairs, Engine: r.engine, Cached: r.cached,
			AllocBytes: ms1.TotalAlloc - ms0.TotalAlloc, GCs: ms1.NumGC - ms0.NumGC,
			Spans: convertTrace(r.trace),
		})
		if batch != nil {
			s.directAppend(batch, ms)
		}
	}
}

// scratchBody registers the scratch dataset "w" of the read-only
// workloads' appends.
func scratchBody(in *inputs) []byte {
	return elementsBody("w", in.b[:min(appendBatch, len(in.b))])
}

// checked counts one attempted operation and reports whether it passed.
func (s *session) checked(class string, err error) bool {
	s.attempted++
	if err == nil {
		return true
	}
	s.failed++
	if len(s.errs) < 5 {
		s.errs = append(s.errs, fmt.Sprintf("%s: %v", class, err))
	}
	return false
}

// heapAfterGC is the live heap after forced collections. One is not
// enough: objects parked in sync.Pool victim caches survive the first.
func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// run executes one benchmark run and writes its report lines to out.
func run(o options, out io.Writer) (result, error) {
	w, err := findWorkload(o.workload)
	if err != nil {
		return result{}, err
	}
	in, err := makeInputs(w, o.seed, o.scale)
	if err != nil {
		return result{}, err
	}
	bodyA, bodyB := elementsBody("a", in.a), elementsBody("b", in.b)

	// Each set-up uploads both datasets to a fresh daemon; the last daemon
	// serves the run. The heap baseline is taken just before it starts, so
	// retained_heap_mb excludes the benchmark's own inputs and references.
	var setupS []float64
	var d *daemon
	var baseHeap uint64
	var buildMS float64
	for i := 0; i < o.setups; i++ {
		if d != nil {
			d.close()
			d = nil
		}
		if i == o.setups-1 {
			baseHeap = heapAfterGC()
		}
		d = startDaemon()
		t0 := time.Now()
		ia, err := d.register(bodyA)
		if err != nil {
			d.close()
			return result{}, fmt.Errorf("register a: %w", err)
		}
		ib, err := d.register(bodyB)
		if err != nil {
			d.close()
			return result{}, fmt.Errorf("register b: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		buildMS = ia.BuildMS + ib.BuildMS
	}
	defer d.close()
	d.traced = o.trace

	s := &session{o: o, w: w, in: in, d: d, samples: map[string][]float64{}, picks: map[string]int{}, direct: map[string][]float64{}}
	// Where counts bypass the cache, one unrecorded replay request fills
	// the entry the recorded replays hit.
	if !w.countFills {
		s.op(classReplay, false)
	}
	start := time.Now()
	window := time.Duration(o.seconds * float64(time.Second))
	for time.Since(start) < window && s.appended < len(in.batches) {
		for _, c := range w.cycle {
			s.op(c, true)
		}
	}
	elapsed := time.Since(start)
	d.svc.Quiesce()
	short := w.appendTo == "a" && s.appended < len(in.batches)

	res := result{Metrics: map[string]metric{}}
	fmt.Fprintf(out, "# servebench workload=%s seed=%d seconds=%g trace=%d scale=%g\n", w.name, o.seed, o.seconds, b2i(o.trace), o.scale)
	fmt.Fprintf(out, "# inputs: a=%d b=%d elements, world side %.4g, reference %d pairs; window %.1fs, %d batches appended\n",
		len(in.a), len(in.b), w.side*math.Cbrt(o.scale), in.base.Pairs, elapsed.Seconds(), s.appended)
	if short {
		// The window ran out before the last append: the joins saw fewer
		// states of "a" than a full run, so its figures compare with no other.
		fmt.Fprintf(out, "# warning: the window ended after %d of %d batches\n", s.appended, len(in.batches))
	}
	if o.trace {
		if err := s.traced(res.Metrics, buildMS); err != nil {
			return result{}, err
		}
		fmt.Fprintf(out, "# span trees and outside timings: %s\n", o.traceOut)
	} else {
		heap := float64(heapAfterGC()) - float64(baseHeap)
		runtime.KeepAlive(bodyA)
		runtime.KeepAlive(bodyB)
		runtime.KeepAlive(in)
		s.endToEnd(res.Metrics, setupS, heap, out)
	}
	res.Attempted, res.Failed = s.attempted, s.failed
	res.Correct = s.failed == 0
	for _, e := range s.errs {
		fmt.Fprintf(out, "# error: %s\n", e)
	}
	return res, nil
}

// endToEnd fills the end-to-end metrics and prints them with the p90s and
// the failure share, which the last line leaves out.
func (s *session) endToEnd(m map[string]metric, setupS []float64, heap float64, out io.Writer) {
	m["setup_s"] = metric{median(setupS), "s"}
	for _, c := range []struct{ name, class string }{
		{"stream_ms.p50", classStream},
		{"ttfp_ms.p50", "ttfp"},
		{"count_ms.p50", classCount},
		{"replay_ms.p50", classReplay},
		{"append_ms.p50", classAppend},
	} {
		m[c.name] = metric{median(s.samples[c.class]), "ms"}
	}
	// Where the planner alternates between engines, auto latencies are a
	// mixture of modes: their median jumps between modes from run to run,
	// and their mean follows the share of a rare slow engine. The mean of
	// the middle half does neither.
	m["auto_ms.iqm"] = metric{iqm(s.samples[classAuto]), "ms"}
	m["retained_heap_mb"] = metric{heap / (1 << 20), "MB"}

	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(out, "%-18s %12.4f %s\n", k, m[k].Value, m[k].Unit)
	}
	fmt.Fprintf(out, "%-18s %12.4f ms\n", "auto_ms.p50", median(s.samples[classAuto]))
	for _, c := range []string{classStream, classAuto, classAppend} {
		if n := len(s.samples[c]); n >= 100 {
			fmt.Fprintf(out, "%-18s %12.4f ms\n", c+"_ms.p90", percentile(s.samples[c], 0.9))
		} else if n > 0 {
			fmt.Fprintf(out, "%-18s %12s    (n=%d < 100)\n", c+"_ms.p90", "-", n)
		}
	}
	fmt.Fprintf(out, "%-18s %12.4f frac (%d of %d)\n", "failed_frac", float64(s.failed)/float64(max(s.attempted, 1)), s.failed, s.attempted)
	fmt.Fprint(out, "# samples:")
	for _, c := range []string{classStream, "ttfp", classAuto, classCount, classReplay, classAppend} {
		fmt.Fprintf(out, " %s=%d", c, len(s.samples[c]))
	}
	fmt.Fprintf(out, "\n# auto picks %v; replay cache hits %d of %d\n", s.picks, s.replayHits, s.replays)
}

func durMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// median of xs (0 when empty); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// iqm is the interquartile mean of xs: the mean of the values from the
// 25th to the 75th percentile (0 when empty).
func iqm(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	lo, hi := len(s)/4, len(s)-len(s)/4
	sum := 0.0
	for _, x := range s[lo:hi] {
		sum += x
	}
	return sum / float64(hi-lo)
}

// percentile is the nearest-rank q-quantile of xs (0 when empty).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}
