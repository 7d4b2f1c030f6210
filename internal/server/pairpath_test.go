// Pair-path tests: the join body hands its consumers pairs in blocks of
// pairBlock, and the NDJSON writer encodes them without reflection. Block
// boundaries must be invisible on the wire — every pair line byte-identical
// to encoding/json's, the same pairs live and replayed, exact counts in the
// trailer — and an engine failure mid-block must still deliver the pairs
// emitted before it.
package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/naive"
	"repro/transformers"
)

// TestPairLineMatchesEncodingJSON: the hand-rolled pair line is the line a
// json.Encoder writes for pairDTO, at the integer edges encoding/json and
// strconv could disagree on (one and two digits, past float64's exact
// integers, the largest uint64).
func TestPairLineMatchesEncodingJSON(t *testing.T) {
	ids := []uint64{0, 1, 9, 10, 1<<53 + 1, math.MaxUint64}
	for _, a := range ids {
		for _, b := range ids {
			want, err := json.Marshal(pairDTO{A: a, B: b})
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, '\n')
			if got := (transformers.Pair{A: a, B: b}).AppendNDJSON(nil); !bytes.Equal(got, want) {
				t.Errorf("pair (%d,%d): line %q, encoding/json writes %q", a, b, got, want)
			}
		}
	}
}

// latticeBoxes returns n disjoint unit boxes on a 32×32 lattice of pitch 30,
// shifted by off along every axis; IDs start at base.
func latticeBoxes(n int, base uint64, off float64) []transformers.Element {
	elems := make([]transformers.Element, n)
	for i := range elems {
		lo := [3]float64{float64(i%32)*30 + off, float64(i/32%32)*30 + off, float64(i/1024)*30 + off}
		elems[i] = transformers.Element{ID: base + uint64(i), Box: transformers.Box{Lo: lo, Hi: [3]float64{lo[0] + 1, lo[1] + 1, lo[2] + 1}}}
	}
	return elems
}

// exactPairsDatasets returns two datasets whose join has exactly n pairs:
// n lattice boxes each, pairwise twins; for n = 0 one box each, apart.
func exactPairsDatasets(n int) (a, b []transformers.Element) {
	if n == 0 {
		return latticeBoxes(1, 0, 0), latticeBoxes(1, 1<<20, 15)
	}
	return latticeBoxes(n, 0, 0), latticeBoxes(n, 1<<20, 0)
}

// readPairStream reads one NDJSON join stream: its pair lines, each checked
// byte for byte against encoding/json's pairDTO line, and its trailer.
func readPairStream(t *testing.T, body io.Reader) ([]transformers.Pair, *streamTrailer) {
	t.Helper()
	var pairs []transformers.Pair
	var trailer *streamTrailer
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if trailer != nil {
			t.Fatalf("line %q after the trailer", line)
		}
		if bytes.Contains(line, []byte(`"request_id"`)) {
			trailer = &streamTrailer{}
			if err := json.Unmarshal(line, trailer); err != nil {
				t.Fatalf("trailer %q: %v", line, err)
			}
			continue
		}
		var p pairDTO
		if err := json.Unmarshal(line, &p); err != nil {
			t.Fatalf("pair line %q: %v", line, err)
		}
		if want, _ := json.Marshal(p); !bytes.Equal(line, want) {
			t.Fatalf("pair line %q, encoding/json writes %q", line, want)
		}
		pairs = append(pairs, transformers.Pair{A: p.A, B: p.B})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if trailer == nil {
		t.Fatal("stream ended without a trailer")
	}
	return pairs, trailer
}

// TestHTTPStreamBlockBoundaries: results of 0, 1, one short of a block, one
// block, one past it and two blocks plus one stream the same pairs live and
// as a cache-hit replay, with the trailer, summary and line counts in
// agreement, and the traced live run's stream-emit record counting every
// pair and exactly the blocks the first-pair-alone rule implies.
func TestHTTPStreamBlockBoundaries(t *testing.T) {
	for _, n := range []int{0, 1, pairBlock - 1, pairBlock, pairBlock + 1, 2*pairBlock + 1} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			ts, svc := newTestServer(t, Config{})
			a, b := exactPairsDatasets(n)
			want := naive.Join(append([]transformers.Element(nil), a...), append([]transformers.Element(nil), b...))
			if len(want) != n {
				t.Fatalf("datasets join to %d pairs, want %d", len(want), n)
			}
			addDataset(t, svc, "a", a)
			addDataset(t, svc, "b", b)
			for _, tc := range []struct {
				name, body string
				cached     bool
			}{
				{"live", `{"a":"a","b":"b","stream":true,"no_cache":true,"trace":true}`, false},
				{"fill", `{"a":"a","b":"b","stream":true}`, false},
				{"replay", `{"a":"a","b":"b","stream":true}`, true},
			} {
				resp, err := http.Post(ts.URL+"/join", "application/json", strings.NewReader(tc.body))
				if err != nil {
					t.Fatal(err)
				}
				got, tr := readPairStream(t, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || tr.Aborted || tr.Summary == nil || tr.Cached != tc.cached {
					t.Fatalf("%s: status %d, trailer %+v", tc.name, resp.StatusCode, tr)
				}
				if tr.Pairs != len(got) || tr.Summary.Results != uint64(len(got)) {
					t.Fatalf("%s: %d pair lines, trailer pairs %d, summary.results %d", tc.name, len(got), tr.Pairs, tr.Summary.Results)
				}
				if !naive.Equal(got, append([]transformers.Pair(nil), want...)) {
					t.Fatalf("%s: streamed pair set diverges from naive (%d vs %d pairs)", tc.name, len(got), n)
				}
				if tc.name != "live" {
					continue
				}
				rec := tr.Trace.Find("stream-emit")
				if rec == nil {
					t.Fatal("live trace has no stream-emit record")
				}
				wantBlocks := 0
				if n > 0 {
					wantBlocks = 1 + (n-1+pairBlock-1)/pairBlock
				}
				if rec.Counters["pairs"] != int64(n) || rec.Counters["blocks"] != int64(wantBlocks) {
					t.Fatalf("stream-emit counters %v, want pairs=%d blocks=%d", rec.Counters, n, wantBlocks)
				}
			}
			if st := svc.Stats(); st.StreamedPairs != uint64(3*n) {
				t.Fatalf("streamed_pairs = %d, want %d", st.StreamedPairs, 3*n)
			}
		})
	}
}

// TestHTTPStreamEngineErrorDeliversTail: an engine failure after 50 emitted
// pairs — the first sent alone, the other 49 still gathering in the block —
// must deliver those 49 before the aborted trailer, whose count matches the
// pair lines, as does streamed_pairs.
func TestHTTPStreamEngineErrorDeliversTail(t *testing.T) {
	sc := faultinject.New(faultinject.Fault{Op: faultinject.OpEmitError, After: 50, Times: 1})
	algo := registerFaultEngine(sc)
	ts, svc := newTestServer(t, Config{})
	addDataset(t, svc, "a", bigOverlapDataset(800, 431))
	addDataset(t, svc, "b", bigOverlapDataset(800, 432))

	body := fmt.Sprintf(`{"a":"a","b":"b","stream":true,"no_cache":true,"algorithm":%q}`, algo)
	resp, err := http.Post(ts.URL+"/join", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 (stream had started)", resp.StatusCode)
	}
	got, tr := readPairStream(t, resp.Body)
	if !tr.Aborted || !strings.Contains(tr.Error, faultinject.ErrInjected.Error()) {
		t.Fatalf("trailer = %+v, want aborted with the injected error", tr)
	}
	if len(got) != 50 || tr.Pairs != 50 {
		t.Fatalf("%d pair lines, trailer pairs %d; want the 50 emitted before the fault", len(got), tr.Pairs)
	}
	if st := svc.Stats(); st.StreamedPairs != 50 {
		t.Fatalf("streamed_pairs = %d, want 50", st.StreamedPairs)
	}
	waitPoolDrained(t, svc)
}

// discardResponseWriter is an http.ResponseWriter that drops the body and
// counts its lines.
type discardResponseWriter struct {
	hdr    http.Header
	status int
	lines  int
}

func (w *discardResponseWriter) Header() http.Header {
	if w.hdr == nil {
		w.hdr = make(http.Header)
	}
	return w.hdr
}
func (w *discardResponseWriter) WriteHeader(status int) { w.status = status }
func (w *discardResponseWriter) Write(p []byte) (int, error) {
	w.lines += bytes.Count(p, []byte{'\n'})
	return len(p), nil
}

// BenchmarkStreamPairs streams a ~100K-pair live join through the HTTP
// handler into a discarding writer: the pair path from engine emit to
// response bytes, without a network or a client.
func BenchmarkStreamPairs(b *testing.B) {
	svc := NewService(Config{})
	for i, name := range []string{"a", "b"} {
		if _, err := svc.AddDataset(context.Background(), name, bigOverlapDataset(2150, int64(441+i))); err != nil {
			b.Fatal(err)
		}
	}
	h := NewHandler(svc)
	const body = `{"a":"a","b":"b","stream":true,"no_cache":true}`
	pairs := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := &discardResponseWriter{}
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/join", strings.NewReader(body)))
		if w.status != http.StatusOK || w.lines < 2 {
			b.Fatalf("status %d, %d lines", w.status, w.lines)
		}
		pairs = w.lines - 1
	}
	b.ReportMetric(float64(pairs), "pairs/op")
}
