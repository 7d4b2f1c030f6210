// Package engine unifies every spatial join implementation in this
// repository behind one interface. The paper's evaluation (§VII) compares
// TRANSFORMERS against PBSM, synchronized R-tree traversal and GIPSY; this
// package turns those reproductions — previously bench-only code with five
// incompatible call signatures — into interchangeable execution engines that
// the serving layer, the benchmark harness and the CLI tools all drive
// through a single registry.
//
// An engine takes two element sets and streams the intersecting (or
// within-distance) ID pairs through an emit callback as it finds them — the
// one execution path (RunStream); Run is only a collector over it — and
// returns a uniform Stats record: pages read, candidate tests, refinements
// (pairs surviving the MBB filter), and the wall/modeled-I/O split the paper
// reports. The planner subpackage picks an engine per request from cheap
// dataset statistics, with TRANSFORMERS as the robust fallback — the serving
// counterpart of the paper's thesis that no fixed layout wins everywhere.
package engine

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/storage"
)

// Options parameterizes one engine execution. The zero value is a valid
// intersection join at default sizing; engines ignore the knobs that do not
// apply to them.
type Options struct {
	// PageSize is the disk page size of any index the engine builds; 8KB
	// when zero (§VII-A).
	PageSize int
	// World bounds space partitioning; the union of the dataset MBBs when
	// zero. PBSM requires it to cover both datasets.
	World geom.Box
	// Disk prices I/O for modeled times; storage.DefaultDiskModel() when
	// zero.
	Disk storage.DiskModel
	// Distance > 0 runs the distance join of §VIII: both inputs are copied
	// with every box grown by Distance/2 per side before the join, so the
	// engine reports exactly the pairs within Chebyshev distance Distance.
	Distance float64
	// Parallelism sets the worker count for engines whose Capabilities
	// report Parallel; others run single-threaded regardless.
	Parallelism int
	// Concurrent marks prebuilt indexes as shared with other goroutines
	// (the serving layer); reads then go through private reader views.
	Concurrent bool
	// DiscardPairs makes Run skip pair collection (benchmarks that only
	// need the counters); RunStream ignores it.
	DiscardPairs bool

	// TRANSFORMERS-specific knobs (forwarded to core.JoinConfig).
	DisableTransforms bool
	TSU, TSO          float64
	FixedThresholds   bool
	GuideB            bool
	CachePages        int

	// PBSMTilesPerDim sets PBSM's tile grid resolution; 10 when zero.
	PBSMTilesPerDim int
	// RTreeFanout caps R-tree node fanout; page capacity when zero.
	RTreeFanout int

	// Prebuilt supplies already-built TRANSFORMERS indexes (the serving
	// catalog reuses them across joins); only the transformers engine
	// honors it, and it then ignores the raw element inputs entirely.
	Prebuilt *Prebuilt
}

// Prebuilt carries catalog-owned TRANSFORMERS indexes into a join so the
// engine skips its build phase. Distance expansion must already be applied
// to the indexes (the catalog keys variants by expansion).
type Prebuilt struct {
	A, B *core.Index
}

// Capabilities describes what an engine can do; the planner and the serving
// layer use it to route work.
type Capabilities struct {
	// Parallel: the engine honors Options.Parallelism > 1.
	Parallel bool
	// Adaptive: the engine adapts its strategy to the data at runtime
	// (no fixed layout to degrade on non-uniform inputs).
	Adaptive bool
	// InMemory: the engine joins without building a paged index (no
	// modeled I/O; costs are pure CPU).
	InMemory bool
	// Reference: trivially correct but asymptotically unserious; the
	// planner only considers it for tiny inputs.
	Reference bool
	// PrebuiltIndexes: the engine can reuse catalog indexes passed via
	// Options.Prebuilt.
	PrebuiltIndexes bool
}

// Stats is the uniform per-run cost record every engine reports: the paper's
// join-phase metrics (wall time, modeled I/O, intersection tests) plus the
// indexing phase and the filter-step counters.
type Stats struct {
	// Indexing phase (zero for in-memory engines and prebuilt runs).
	BuildWall    time.Duration `json:"build_wall_ns"`
	BuildIO      storage.Stats `json:"build_io"`
	BuildIOTime  time.Duration `json:"build_io_ns"`    // modeled
	BuildTotal   time.Duration `json:"build_total_ns"` // BuildWall + BuildIOTime
	IndexedPages int           `json:"indexed_pages"`

	// Join phase.
	JoinWall   time.Duration `json:"join_wall_ns"` // in-memory time
	JoinIO     storage.Stats `json:"join_io"`
	JoinIOTime time.Duration `json:"join_io_ns"` // modeled
	JoinTotal  time.Duration `json:"join_total_ns"`

	// PagesRead is the number of pages the join phase read (cache hits
	// excluded) — JoinIO.Reads, surfaced as a first-class counter.
	PagesRead uint64 `json:"pages_read"`
	// Candidates counts element-element MBB intersection tests performed
	// by the filter step (the paper's "#intersection tests").
	Candidates uint64 `json:"candidates"`
	// MetaComparisons counts descriptor/node MBB tests steering the
	// execution (walks, crawls, tree traversal).
	MetaComparisons uint64 `json:"meta_comparisons"`
	// Refinements counts pairs surviving the MBB filter — the output of
	// the filtering step and the workload a refinement step would receive.
	Refinements uint64 `json:"refinements"`

	// Transformers carries the full adaptive-join counter set when the
	// transformers engine ran (zero value otherwise).
	Transformers core.JoinStats `json:"-"`

	// InMem carries the stripe-partition record when the in-memory engine
	// ran (nil otherwise).
	InMem *InMemStats `json:"inmem,omitempty"`
}

// InMemStats is the per-execution record of the in-memory stripe-partition
// engine: how the space was cut and what the cut cost in boundary
// replication. It lives here (not in internal/engine/inmem) so Result.Stats,
// the serving layer and the bench JSON carry it without importing the kernel.
type InMemStats struct {
	// Stripes is the effective stripe count after quantile-cut dedup.
	Stripes int `json:"stripes"`
	// SplitDim is the striped dimension, SweepDim the plane-sweep one.
	SplitDim int `json:"split_dim"`
	SweepDim int `json:"sweep_dim"`
	// ReplicatedA/ReplicatedB count extra SoA element copies made because a
	// box's split-dimension interval crosses stripe boundaries.
	ReplicatedA int `json:"replicated_a"`
	ReplicatedB int `json:"replicated_b"`
}

// finish derives the modeled-I/O and total fields from the raw counters.
func (s *Stats) finish(disk storage.DiskModel) {
	s.BuildIOTime = disk.IOTime(s.BuildIO)
	s.BuildTotal = s.BuildWall + s.BuildIOTime
	s.JoinIOTime = disk.IOTime(s.JoinIO)
	s.JoinTotal = s.JoinWall + s.JoinIOTime
	s.PagesRead = s.JoinIO.Reads
}

// Result is the outcome of one engine execution.
type Result struct {
	// Engine is the name of the engine that ran.
	Engine string
	// Pairs lists the joined ID pairs Run collected, A always from the
	// first input (nil from RunStream and with Options.DiscardPairs).
	Pairs []geom.Pair
	// Stats is the uniform cost record.
	Stats Stats
}

// Joiner is one spatial join implementation. Join inputs may be reordered in
// place by partitioning engines — pass copies if the caller retains them.
// Implementations must be safe for concurrent use by multiple goroutines
// (they keep no per-call state).
type Joiner interface {
	// Name is the stable registry key (e.g. "transformers", "pbsm").
	Name() string
	// Capabilities describes the engine's execution profile.
	Capabilities() Capabilities
	// JoinStream executes the engine end to end on the two element sets,
	// reporting each result pair through emit as it is found; the returned
	// Result carries the Stats with Pairs nil. An emit error (including one
	// caused by context cancellation) aborts the join early and is returned.
	JoinStream(ctx context.Context, a, b []geom.Element, opt Options, emit EmitFunc) (*Result, error)
}

// registry is the process-wide engine registry. Engines register in init;
// Register is also exported so external packages can plug in experimental
// engines without touching this package.
var registry = struct {
	mu     sync.RWMutex
	byName map[string]Joiner
	order  []string
}{byName: make(map[string]Joiner)}

// Register adds an engine to the registry. Registering a name twice panics:
// engine names are wire-visible (HTTP "algorithm" field, bench records), so
// silent replacement would corrupt recorded comparisons.
func Register(j Joiner) {
	name := j.Name()
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if _, dup := registry.byName[name]; dup {
		panic(fmt.Sprintf("engine: duplicate registration of %q", name))
	}
	registry.byName[name] = j
	registry.order = append(registry.order, name)
}

// Get returns the engine registered under name.
func Get(name string) (Joiner, error) {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	j, ok := registry.byName[name]
	if !ok {
		return nil, fmt.Errorf("engine: unknown engine %q (known: %v)", name, namesLocked())
	}
	return j, nil
}

// Names lists the registered engine names in registration order — the
// paper's presentation order for the built-ins (transformers first, then the
// fixed-layout baselines, then the in-memory references).
func Names() []string {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	return namesLocked()
}

func namesLocked() []string {
	return append([]string(nil), registry.order...)
}

// All returns the registered engines in registration order.
func All() []Joiner {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	out := make([]Joiner, 0, len(registry.order))
	for _, n := range registry.order {
		out = append(out, registry.byName[n])
	}
	return out
}

// Run is the collector over RunStream: it executes the named engine and
// gathers the emitted pairs into Result.Pairs (none with
// Options.DiscardPairs).
func Run(ctx context.Context, name string, a, b []geom.Element, opt Options) (*Result, error) {
	var pairs []geom.Pair
	emit := func(p geom.Pair) error { pairs = append(pairs, p); return nil }
	if opt.DiscardPairs {
		emit = func(geom.Pair) error { return nil }
	}
	res, err := RunStream(ctx, name, a, b, opt, emit)
	if err != nil {
		return nil, err
	}
	res.Pairs = pairs
	return res, nil
}

// annotateEngineSpan attaches the uniform cost counters to an engine span —
// nil-safe (untraced runs pass a nil span and pay nothing).
func annotateEngineSpan(s *obs.Span, res *Result) {
	if s == nil || res == nil {
		return
	}
	s.Add("pages_read", int64(res.Stats.PagesRead))
	s.Add("candidates", int64(res.Stats.Candidates))
	s.Add("pairs", int64(res.Stats.Refinements))
	if im := res.Stats.InMem; im != nil {
		s.Add("stripes", int64(im.Stripes))
		s.Add("replicated", int64(im.ReplicatedA+im.ReplicatedB))
	}
}

// normalize fills Options defaults shared by all engines.
func (opt Options) normalize(a, b []geom.Element) (Options, error) {
	if opt.Distance < 0 {
		return opt, fmt.Errorf("engine: negative distance %v", opt.Distance)
	}
	if opt.Disk == (storage.DiskModel{}) {
		opt.Disk = storage.DefaultDiskModel()
	}
	if !opt.World.Valid() || opt.World.Volume() == 0 {
		opt.World = geom.MBBOf(a).Union(geom.MBBOf(b))
	}
	return opt, nil
}

// expandForDistance applies the §VIII enlarged-objects reduction: a distance
// join is a spatial join on boxes grown by d/2 per side. Inputs are copied —
// the caller's elements keep their original boxes.
func expandForDistance(elems []geom.Element, d float64) []geom.Element {
	out := make([]geom.Element, len(elems))
	for i, e := range elems {
		out[i] = geom.Element{ID: e.ID, Box: e.Box.Expand(d / 2)}
	}
	return out
}

// prepare normalizes options and applies distance expansion; every adapter
// calls it first.
func prepare(ctx context.Context, a, b []geom.Element, opt Options) ([]geom.Element, []geom.Element, Options, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, opt, err
	}
	opt, err := opt.normalize(a, b)
	if err != nil {
		return nil, nil, opt, err
	}
	if opt.Distance > 0 {
		a = expandForDistance(a, opt.Distance)
		b = expandForDistance(b, opt.Distance)
		// The world must cover the grown boxes, or PBSM/GIPSY clamp
		// protruding elements into boundary tiles more than necessary.
		opt.World = opt.World.Expand(opt.Distance / 2)
	}
	return a, b, opt, nil
}

// SortPairs orders pairs lexicographically (A then B) — the canonical order
// result sets are compared in across engines.
func SortPairs(pairs []geom.Pair) {
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].A != pairs[j].A {
			return pairs[i].A < pairs[j].A
		}
		return pairs[i].B < pairs[j].B
	})
}
