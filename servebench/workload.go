package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/server"
)

// Request classes. Every join class runs against datasets "a" × "b".
const (
	classStream = "stream" // {stream, no_cache}: the daemon's default engine
	classAuto   = "auto"   // the same with algorithm "auto"
	classCount  = "count"  // no include_pairs: the collected path
	classReplay = "replay" // {stream}: served from the cache
	classAppend = "append" // one batch appended to the workload's append target
)

// appendBatch is the element count of one append request.
const appendBatch = 500

// scratchBatches is how many batches a scratch dataset takes before it is
// registered afresh: 16 × 500 stays below the daemon's default merge
// threshold (8192), so appends to scratch datasets never start a merge.
const scratchBatches = 16

// workload is one traffic mix: two generated datasets and the cycle of
// request classes the closed loop repeats. Every class runs on every
// workload, so that every end-to-end metric exists on each.
type workload struct {
	name string
	// n is the element count of each dataset and side the world's side
	// length, both at scale 1.
	n    int
	side float64
	// genA and genB name datagen generators.
	genA, genB string
	cycle      []string
	// appendTo is the dataset appends land on: "a" for the workload that
	// ingests, else the scratch dataset "w", which no join reads, so the
	// write path is measured without changing what the joins see.
	appendTo string
	// countFills lets count requests fill the cache, for the replays that
	// follow them; where appends invalidate the cache every cycle, nothing
	// else would leave an entry to replay. Elsewhere counts bypass the
	// cache and replays hit the entry the warm-up left.
	countFills bool
	// batches is how many append batches are generated for "a". The timed
	// window ends when they run out, so that every run joins the same states
	// of "a" whatever the program's speed; the count is one the slowest runs
	// measured still finish well within a 30 s window.
	batches int
	// scene, when nonzero, fixes the generator seed of both datasets: each
	// run then draws its elements as a seeded sample of that one scene,
	// twice the size needed. Clustered data needs this: the join's cost
	// follows the few overlaps of A's five clusters with B's, so fresh
	// layouts per seed would swing it threefold between runs.
	scene int64
}

// readCycle is the cycle of the read-only workloads. A scratch append
// follows every join, so that appends sample the heap and scheduler states
// all four joins leave behind, and a run takes four times as many of them.
var readCycle = []string{
	classStream, classAppend, classAuto, classAppend,
	classCount, classAppend, classReplay, classAppend,
}

var workloads = []workload{
	{
		// 100K × 100K boxes of side ≤ 1 in a 25³ world: about 617K pairs
		// per join, so emit, NDJSON encoding and the cache dominate.
		name: "dense", n: 100_000, side: 25, genA: "uniform", genB: "uniform",
		cycle:    readCycle,
		appendTo: "w",
	},
	{
		// The same counts in the paper's 1000³ world: about 10 pairs, so
		// filter kernels and per-request preparation dominate.
		name: "sparse", n: 100_000, side: 1000, genA: "uniform", genB: "uniform",
		cycle:    readCycle,
		appendTo: "w",
	},
	{
		// Non-uniform inputs that grow while they are joined: appends,
		// delta sub-joins and background merges compete with joins.
		name: "skewed-ingest", n: 100_000, side: 100, genA: "massive_cluster", genB: "dense_cluster",
		cycle:    []string{classAppend, classStream, classAuto, classCount, classReplay},
		appendTo: "a", countFills: true, batches: 40, scene: 1,
	},
}

// request is the join request a class sends on this workload.
func (w workload) request(class string) joinBody {
	jb := joinBody{A: "a", B: "b"}
	switch class {
	case classStream:
		jb.Stream, jb.NoCache = true, true
	case classAuto:
		jb.Stream, jb.NoCache, jb.Algorithm = true, true, server.AlgorithmAuto
	case classCount:
		jb.NoCache = !w.countFills
	case classReplay:
		jb.Stream = true
	}
	return jb
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// generate draws n elements of the named datagen distribution in a cube of
// the given side.
func generate(kind string, n int, side float64, seed int64) ([]geom.Element, error) {
	cfg := datagen.Config{N: n, Seed: seed, World: geom.Box{Hi: geom.Point{side, side, side}}}
	switch kind {
	case "uniform":
		return datagen.Uniform(cfg), nil
	case "massive_cluster":
		return datagen.MassiveCluster(cfg), nil
	case "dense_cluster":
		return datagen.DenseCluster(cfg), nil
	}
	return nil, fmt.Errorf("unknown generator %q", kind)
}

// inputs is everything a run derives from its seed: the two datasets, the
// append batches, and the reference results every response is checked
// against.
type inputs struct {
	a, b []geom.Element
	// batches are appended in order: to "a" by the ingesting workload,
	// round-robin to the scratch dataset "w" by the others.
	batches [][]geom.Element
	// base is the reference of a × b; afterBatch[k] the reference once
	// batches 0..k have been appended to "a".
	base       digest
	afterBatch []digest
}

// digest is an order-independent summary of a pair multiset.
type digest struct {
	Pairs uint64 `json:"pairs"`
	Sum   uint64 `json:"sum"`
}

func (d *digest) add(a, b uint64) {
	d.Pairs++
	d.Sum += pairHash(a, b)
}

// pairHash is splitmix64 over the packed pair, so that the sum of hashes
// detects a missing, duplicated or altered pair with high probability.
func pairHash(a, b uint64) uint64 {
	z := a*0x9E3779B97F4A7C15 ^ b
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// scaled returns the workload's element count and world side at scale s.
// The side shrinks with the cube root of s, so element density, and with
// it the pairs per element, stays that of the full-size workload.
func (w workload) scaled(s float64) (int, float64) {
	n := int(math.Round(float64(w.n) * s))
	if n < 1 {
		n = 1
	}
	return n, w.side * math.Cbrt(s)
}

// makeInputs generates a run's datasets from its seed and computes their
// references with the pbsm engine. The daemon serves no checked response
// with it: stream and count requests run transformers, and the planner
// resolves auto to inmem, grid or their sharded forms on these workloads.
func makeInputs(w workload, seed int64, scale float64) (*inputs, error) {
	n, side := w.scaled(scale)
	batches := w.batches
	if batches == 0 {
		batches = scratchBatches
	}
	// "a" and its append batches come from one sample, so the batches
	// follow the distribution of the data they join.
	pool, err := w.sample(w.genA, n+batches*appendBatch, side, seed, 1)
	if err != nil {
		return nil, err
	}
	in := &inputs{a: pool[:n:n]}
	for k := 0; k < batches; k++ {
		lo := n + k*appendBatch
		in.batches = append(in.batches, pool[lo:lo+appendBatch:lo+appendBatch])
	}
	if in.b, err = w.sample(w.genB, n, side, seed, 2); err != nil {
		return nil, err
	}

	// One reference join of the whole pool against "b", with each pair
	// attributed to the base or to the batch its "a" element arrives in.
	batchOf := make(map[uint64]int, len(pool)-n)
	for k, bt := range in.batches {
		for _, e := range bt {
			batchOf[e.ID] = k
		}
	}
	perBatch := make([]digest, batches)
	res, err := engine.Run(context.Background(), engine.PBSM, clone(pool), clone(in.b), engine.Options{Parallelism: 1})
	if err != nil {
		return nil, fmt.Errorf("reference join: %w", err)
	}
	for _, p := range res.Pairs {
		if k, ok := batchOf[p.A]; ok {
			perBatch[k].add(p.A, p.B)
		} else {
			in.base.add(p.A, p.B)
		}
	}
	acc := in.base
	for _, d := range perBatch {
		acc.Pairs += d.Pairs
		acc.Sum += d.Sum
		in.afterBatch = append(in.afterBatch, acc)
	}
	return in, nil
}

// sample returns need elements of the generator kind in random order,
// drawn from the workload's scene or, without one, generated from the
// run's seed. salt tells the two datasets of a run apart.
func (w workload) sample(kind string, need int, side float64, seed, salt int64) ([]geom.Element, error) {
	genSeed, size := 2*seed+salt, need
	if w.scene != 0 {
		genSeed, size = 2*w.scene+salt, 2*need
	}
	pool, err := generate(kind, size, side, genSeed)
	if err != nil {
		return nil, err
	}
	rand.New(rand.NewSource(2*seed+salt)).Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return clone(pool[:need]), nil
}

func clone(e []geom.Element) []geom.Element { return append([]geom.Element(nil), e...) }
