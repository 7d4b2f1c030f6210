// Streaming conformance suite: for every registered engine, the pair
// multiset produced through the emit-based JoinStream path must be exactly
// the collected Join pair set, on the canonical uniform/clustered/skewed
// workloads, under both the intersects and the distance predicate, at
// parallelism 1 and 8. The collected Join of every built-in is a thin
// wrapper over the stream, but this suite is what holds the two paths
// together if an engine ever grows a divergent fast path.
package engine_test

import (
	"context"
	"errors"
	"testing"

	"repro/internal/engine"
	"repro/internal/engine/enginetest"
	"repro/internal/geom"
	"repro/internal/naive"
)

// streamPairs runs the engine's streaming path and collects what it emits.
func streamPairs(t *testing.T, name string, a, b []geom.Element, opt engine.Options) ([]geom.Pair, *engine.Result) {
	t.Helper()
	var pairs []geom.Pair
	res, err := engine.RunStream(context.Background(), name, a, b, opt,
		func(p geom.Pair) error { pairs = append(pairs, p); return nil })
	if err != nil {
		t.Fatalf("%s: RunStream: %v", name, err)
	}
	return pairs, res
}

func TestStreamConformance(t *testing.T) {
	for _, w := range enginetest.Workloads(400, 9000) {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			for _, name := range engine.Names() {
				for _, distance := range []float64{0, 12} {
					for _, par := range []int{1, 8} {
						opt := engine.Options{Distance: distance, Parallelism: par}
						collected, err := engine.Run(context.Background(), name,
							enginetest.Copy(w.A), enginetest.Copy(w.B), opt)
						if err != nil {
							t.Fatalf("%s (d=%v par=%d): Join: %v",
								name, distance, opt.Parallelism, err)
						}
						streamed, sres := streamPairs(t, name,
							enginetest.Copy(w.A), enginetest.Copy(w.B), opt)
						if !naive.Equal(streamed, enginetest.CopyPairs(collected.Pairs)) {
							t.Errorf("%s (d=%v par=%d) on %s: streamed %d pairs, collected %d — multisets diverge",
								name, distance, opt.Parallelism, w.Name,
								len(streamed), len(collected.Pairs))
						}
						if sres.Stats.Refinements != uint64(len(streamed)) {
							t.Errorf("%s (d=%v par=%d) on %s: stream Refinements=%d but emitted %d",
								name, distance, opt.Parallelism, w.Name,
								sres.Stats.Refinements, len(streamed))
						}
					}
				}
			}
		})
	}
}

// TestStreamEmptyInputGuard: the empty-input short-circuit must cover the
// streaming path exactly as it covers the collected one — valid zero-pair
// Stats and no emit calls.
func TestStreamEmptyInputGuard(t *testing.T) {
	nonEmpty := []geom.Element{{ID: 1, Box: geom.NewBox(geom.Point{1, 1, 1}, geom.Point{2, 2, 2})}}
	cases := []struct {
		name string
		a, b []geom.Element
	}{
		{"empty-a", nil, nonEmpty},
		{"empty-b", nonEmpty, nil},
		{"both-empty", nil, nil},
	}
	for _, name := range engine.Names() {
		for _, tc := range cases {
			emitted := 0
			res, err := engine.RunStream(context.Background(), name, tc.a, tc.b,
				engine.Options{}, func(geom.Pair) error { emitted++; return errors.New("must not be called") })
			if err != nil {
				t.Fatalf("%s/%s: %v", name, tc.name, err)
			}
			if emitted != 0 {
				t.Errorf("%s/%s: emit called %d times on empty input", name, tc.name, emitted)
			}
			if res == nil || res.Engine != name || res.Stats.Refinements != 0 || res.Pairs != nil {
				t.Errorf("%s/%s: malformed empty result %+v", name, tc.name, res)
			}
			if res.Stats.JoinTotal != res.Stats.JoinWall+res.Stats.JoinIOTime {
				t.Errorf("%s/%s: Stats not finished", name, tc.name)
			}
			// The guard must also validate options on the streaming path.
			if _, err := engine.RunStream(context.Background(), name, tc.a, tc.b,
				engine.Options{Distance: -1}, func(geom.Pair) error { return nil }); err == nil {
				t.Errorf("%s/%s: negative distance accepted on streaming empty path", name, tc.name)
			}
		}
	}
}
