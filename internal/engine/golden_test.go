// Golden regression corpus: committed fixture datasets plus expected
// sorted-pair-set hashes under testdata/. Engine changes are diffed against
// known-good results instead of recomputing the naive reference every run —
// and unlike a live reference, a hash also catches the failure mode where
// naive itself regresses.
//
// Regenerate with:
//
//	go test ./internal/engine -run TestGolden -update
//
// Fixture element files are only written if absent (they are committed
// state, deterministic in their seeds); the hashes in golden.json are
// recomputed from the naive join on every -update.
package engine_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/engine/enginetest"
	"repro/internal/geom"
	"repro/internal/naive"
)

var updateGolden = flag.Bool("update", false, "regenerate testdata golden hashes (and any missing fixture files)")

// fixtureElement is the on-disk element encoding.
type fixtureElement struct {
	ID uint64     `json:"id"`
	Lo [3]float64 `json:"lo"`
	Hi [3]float64 `json:"hi"`
}

// fixtureFile is one committed dataset pair.
type fixtureFile struct {
	A []fixtureElement `json:"a"`
	B []fixtureElement `json:"b"`
}

// goldenEntry is the expected result of joining one fixture.
type goldenEntry struct {
	Pairs  int    `json:"pairs"`
	SHA256 string `json:"sha256"`
}

// goldenFixtures defines the corpus: name plus the deterministic builder
// used to bootstrap a missing fixture file.
func goldenFixtures() []struct {
	name  string
	build func() ([]geom.Element, []geom.Element)
} {
	return []struct {
		name  string
		build func() ([]geom.Element, []geom.Element)
	}{
		{"uniform-small", func() ([]geom.Element, []geom.Element) {
			return enginetest.Inflate(datagen.Uniform(datagen.Config{N: 250, Seed: 71}), 8),
				enginetest.Inflate(datagen.Uniform(datagen.Config{N: 250, Seed: 72}), 8)
		}},
		{"clustered", func() ([]geom.Element, []geom.Element) {
			a, b := enginetest.ClusteredPair(300, 73, 74)
			return enginetest.Inflate(a, 3), enginetest.Inflate(b, 3)
		}},
		{"skewed", func() ([]geom.Element, []geom.Element) {
			a, b := enginetest.SkewedPair(300, 75, 76)
			return enginetest.Inflate(a, 3), enginetest.Inflate(b, 3)
		}},
		{"boundary-aligned", func() ([]geom.Element, []geom.Element) {
			// Boxes whose faces sit exactly on the order-5 tiling grid
			// (1000/32 = 31.25 per cell) plus giants straddling every cut —
			// the shapes boundary dedup earns its keep on.
			const cell = 1000.0 / 32
			var a, b []geom.Element
			id := uint64(0)
			for i := 0; i < 8; i++ {
				for j := 0; j < 8; j++ {
					lo := geom.Point{float64(i) * 4 * cell, float64(j) * 4 * cell, cell}
					hi := geom.Point{lo[0] + 4*cell, lo[1] + 4*cell, 2 * cell}
					a = append(a, geom.Element{ID: id, Box: geom.Box{Lo: lo, Hi: hi}})
					id++
				}
			}
			for i := 0; i < 6; i++ {
				lo := geom.Point{float64(i) * 5 * cell, 0, 0}
				hi := geom.Point{lo[0] + 5*cell, 1000, 1000}
				b = append(b, geom.Element{ID: uint64(i), Box: geom.Box{Lo: lo, Hi: hi}})
			}
			b = append(b, geom.Element{ID: 100, Box: geom.Box{Lo: geom.Point{0, 0, 0}, Hi: geom.Point{1000, 1000, 1000}}})
			return a, b
		}},
	}
}

func fixturePath(name string) string { return filepath.Join("testdata", name+".json") }

const goldenPath = "testdata/golden.json"

// pairSetHash is the canonical digest of a join result: sha256 over the
// lexicographically sorted "A B" lines.
func pairSetHash(pairs []geom.Pair) string {
	sorted := enginetest.CopyPairs(pairs)
	naive.Sort(sorted)
	h := sha256.New()
	for _, p := range sorted {
		fmt.Fprintf(h, "%d %d\n", p.A, p.B)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func toFixture(elems []geom.Element) []fixtureElement {
	out := make([]fixtureElement, len(elems))
	for i, e := range elems {
		out[i] = fixtureElement{ID: e.ID, Lo: e.Box.Lo, Hi: e.Box.Hi}
	}
	return out
}

func fromFixture(elems []fixtureElement) []geom.Element {
	out := make([]geom.Element, len(elems))
	for i, e := range elems {
		out[i] = geom.Element{ID: e.ID, Box: geom.Box{Lo: e.Lo, Hi: e.Hi}}
	}
	return out
}

// loadFixture reads (or, under -update, bootstraps) one fixture pair.
func loadFixture(t *testing.T, name string, build func() ([]geom.Element, []geom.Element)) ([]geom.Element, []geom.Element) {
	t.Helper()
	path := fixturePath(name)
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) && *updateGolden {
		a, b := build()
		blob, merr := json.MarshalIndent(fixtureFile{A: toFixture(a), B: toFixture(b)}, "", " ")
		if merr != nil {
			t.Fatal(merr)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		return a, b
	}
	if err != nil {
		t.Fatalf("fixture %s: %v (run with -update to bootstrap)", name, err)
	}
	var f fixtureFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatalf("fixture %s: %v", name, err)
	}
	return fromFixture(f.A), fromFixture(f.B)
}

func loadGolden(t *testing.T) map[string]goldenEntry {
	t.Helper()
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("golden hashes: %v (run with -update to regenerate)", err)
	}
	var g map[string]goldenEntry
	if err := json.Unmarshal(raw, &g); err != nil {
		t.Fatal(err)
	}
	return g
}

// TestGoldenCorpus checks every engine against the committed pair-set hash
// of every fixture; under -update it recomputes the hashes from the naive
// reference instead.
func TestGoldenCorpus(t *testing.T) {
	golden := map[string]goldenEntry{}
	if !*updateGolden {
		golden = loadGolden(t)
	}
	for _, fx := range goldenFixtures() {
		fx := fx
		t.Run(fx.name, func(t *testing.T) {
			a, b := loadFixture(t, fx.name, fx.build)
			if *updateGolden {
				ref := naive.Join(a, b)
				golden[fx.name] = goldenEntry{Pairs: len(ref), SHA256: pairSetHash(ref)}
				return
			}
			want, ok := golden[fx.name]
			if !ok {
				t.Fatalf("no golden entry for %s (run with -update)", fx.name)
			}
			for _, name := range engine.Names() {
				res, err := engine.Run(context.Background(), name, enginetest.Copy(a), enginetest.Copy(b), engine.Options{})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if got := pairSetHash(res.Pairs); got != want.SHA256 || len(res.Pairs) != want.Pairs {
					t.Errorf("%s: %d pairs, hash %s — golden has %d pairs, hash %s",
						name, len(res.Pairs), got[:12], want.Pairs, want.SHA256[:12])
				}
			}
		})
	}
	if *updateGolden {
		blob, err := json.MarshalIndent(golden, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d fixtures)", goldenPath, len(golden))
	}
}
