package planner

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/engine"
	"repro/internal/storage"
)

// Config parameterizes one planning pass.
type Config struct {
	// PageSize prices index pages; storage.DefaultPageSize when zero.
	PageSize int
	// Disk prices page I/O the same way the benchmark currency does;
	// storage.DefaultDiskModel() when zero.
	Disk storage.DiskModel
	// Engines is the candidate set; the full registry when nil.
	Engines []engine.Joiner
	// PrebuiltTransformers marks the TRANSFORMERS indexes as already built
	// (the serving catalog builds them at dataset registration), so the
	// transformers engine is priced without its build phase while the
	// fixed-layout engines pay a per-request build.
	PrebuiltTransformers bool
	// MaxReferenceProduct bounds |A|·|B| for Reference engines (naive);
	// above it they are excluded from selection outright. 4e6 when zero.
	MaxReferenceProduct float64
	// MaxInMemoryElements bounds |A|+|B| for InMemory engines (grid,
	// naive): they rebuild their whole structure per request with no
	// index reuse and no paging, so under concurrent serving traffic
	// large inputs turn into unbounded per-request allocations. Above the
	// cap they are excluded from auto-selection (still requestable
	// explicitly). DefaultMaxInMemoryElements when zero.
	MaxInMemoryElements int
	// ShardWorkers is ignored.
	//
	// Deprecated: it priced a worker pool that no engine has any more.
	ShardWorkers int
	// Calibration, when non-nil, replaces the hand-tuned cost constants
	// with fitted per-engine term multipliers (see Fit and cmd/plannerfit).
	// Cost terms are always reported raw in Score.Terms so a future refit
	// regresses against the same feature space.
	Calibration *Calibration
	// Correct, when non-nil, returns a multiplicative drift-correction
	// factor for an engine's final predicted cost — the online corrector's
	// per-(dataset-pair, engine) EWMA of measured/predicted (see Corrector).
	// Factors <= 0 (or non-finite) are ignored.
	Correct func(engine string) float64
}

// DefaultMaxInMemoryElements is the combined-cardinality cap above which the
// planner stops auto-selecting in-memory engines.
const DefaultMaxInMemoryElements = 250_000

// FitsInMemory reports whether both datasets together fit under the
// in-memory element cap (maxElements, or DefaultMaxInMemoryElements when
// non-positive). It is the single gate shared by the planner's
// in-memory-engine exclusion and the in-memory fast-path cost branch, so the
// two can never disagree about what "RAM-resident" means.
func FitsInMemory(a, b DatasetStats, maxElements int) bool {
	if maxElements <= 0 {
		maxElements = DefaultMaxInMemoryElements
	}
	return a.Count+b.Count <= maxElements
}

// CostTerm is one named component of an engine's predicted cost, in
// milliseconds of modeled time, priced at the hand-tuned constants — raw,
// before calibration multipliers and drift correction. The term vector is the
// feature row the offline fitter (Fit) regresses measured cost against, so it
// must stay stable across calibration generations.
type CostTerm struct {
	Name string  `json:"name"`
	MS   float64 `json:"ms"`
}

// Score is one engine's predicted cost.
type Score struct {
	Engine string `json:"engine"`
	// CostMS is the predicted end-to-end cost in milliseconds of modeled
	// time (in-memory work + modeled disk I/O — the repository's benchmark
	// currency), after calibration multipliers and drift correction.
	// math.Inf for engines the planner refuses to auto-select.
	CostMS float64 `json:"cost_ms"`
	// Reason explains the dominant term of the prediction.
	Reason string `json:"reason"`
	// Terms is the raw decomposition CostMS was assembled from (empty for
	// excluded engines). Kept off the JSON wire — the planner accuracy
	// recorder mirrors the chosen engine's terms into its samples instead.
	Terms []CostTerm `json:"-"`
}

// MarshalJSON keeps Score wire-safe: encoding/json rejects +Inf, so
// non-selectable engines serialize with cost_ms omitted (the reason field
// explains why they were excluded).
func (s Score) MarshalJSON() ([]byte, error) {
	type dto struct {
		Engine string   `json:"engine"`
		CostMS *float64 `json:"cost_ms,omitempty"`
		Reason string   `json:"reason"`
	}
	d := dto{Engine: s.Engine, Reason: s.Reason}
	if !math.IsInf(s.CostMS, 0) && !math.IsNaN(s.CostMS) {
		d.CostMS = &s.CostMS
	}
	return json.Marshal(d)
}

// Decision is the planner's output: the selected engine and the full ranked
// scoring, so responses and /stats can show why.
type Decision struct {
	Engine string `json:"engine"`
	// Fallback reports that the robust default (TRANSFORMERS) was chosen
	// over a nominally cheaper engine because the predicted advantage was
	// within the model's error margin.
	Fallback bool `json:"fallback,omitempty"`
	// Scores is sorted by ascending predicted cost.
	Scores []Score `json:"scores"`
}

// Cost model constants, calibrated against the cross-engine comparison
// recorded in BENCH_1.json (see that file and internal/bench's "engines"
// experiment). Time unit: seconds.
const (
	// tComp prices one element-element MBB intersection test.
	tComp = 8e-9
	// tWalk prices one GIPSY directed walk (per guide element): queue
	// churn plus descriptor tests, measured ~20µs at bench scale.
	tWalk = 20e-6
	// tBuildPerElem prices STR-style partitioning per element (sort +
	// assignment); grid assignment (PBSM) is cheaper.
	tBuildPerElem      = 2e-7
	tGridAssignPerElem = 1.2e-7
	// transformersOverhead is the adaptive-exploration surcharge on top of
	// the data cost (paper §VII-C2 measures ~17%).
	transformersOverhead = 1.17
	// fallbackMargin is the minimum predicted advantage another engine
	// must show over TRANSFORMERS before the planner leaves the robust
	// default (cost-model predictions are rough; robustness is the tie
	// breaker, §VII).
	fallbackMargin = 1.25
	// tInMemPartition prices the inmem engine's stripe partitioning per
	// element: the radix sweep-order sort plus the counting fill into the
	// SoA arena (BenchmarkInMemJoin partition+join minus join, and the
	// build column of the BENCH_2 engines comparison).
	tInMemPartition = 2e-7
)

// Plan prices every candidate engine on the two datasets' statistics and
// selects the cheapest, with TRANSFORMERS as the robust fallback. The
// decision is deterministic in the inputs.
func Plan(a, b DatasetStats, cfg Config) Decision {
	pageSize := cfg.PageSize
	if pageSize <= 0 {
		pageSize = storage.DefaultPageSize
	}
	disk := cfg.Disk
	if disk == (storage.DiskModel{}) {
		disk = storage.DefaultDiskModel()
	}
	engines := cfg.Engines
	if engines == nil {
		engines = engine.All()
	}
	maxRef := cfg.MaxReferenceProduct
	if maxRef <= 0 {
		maxRef = 4e6
	}
	maxInMem := cfg.MaxInMemoryElements
	if maxInMem <= 0 {
		maxInMem = DefaultMaxInMemoryElements
	}

	m := model{
		a: a, b: b,
		perPage:  float64(storage.ElementsPerPage(pageSize)),
		tio:      disk.ReadTime(storage.Stats{Reads: 1, SeqReads: 1, BytesRead: uint64(pageSize)}).Seconds(),
		seek:     disk.Seek.Seconds(),
		skew:     math.Max(a.SkewCV, b.SkewCV),
		cluster:  math.Max(a.ClusterFraction, b.ClusterFraction),
		contrast: DensityContrast(a, b),
		prebuilt: cfg.PrebuiltTransformers,
		maxRef:   maxRef,
		maxInMem: maxInMem,
		calib:    cfg.Calibration,
	}

	scores := make([]Score, 0, len(engines))
	for _, j := range engines {
		s := m.score(j)
		// Online drift correction biases the final calibrated cost of each
		// priced engine; the raw terms stay untouched so refits are stable.
		if cfg.Correct != nil && !math.IsInf(s.CostMS, 0) && !math.IsNaN(s.CostMS) {
			if f := cfg.Correct(s.Engine); f > 0 && f != 1 && !math.IsInf(f, 0) && !math.IsNaN(f) {
				s.CostMS *= f
				s.Reason = fmt.Sprintf("%s [drift x%.2f]", s.Reason, f)
			}
		}
		scores = append(scores, s)
	}
	sort.SliceStable(scores, func(i, j int) bool { return scores[i].CostMS < scores[j].CostMS })

	d := Decision{Scores: scores}
	if len(scores) == 0 {
		d.Engine = engine.Transformers
		d.Fallback = true
		return d
	}
	d.Engine = scores[0].Engine
	// Robust fallback: a fixed-layout or in-memory engine must beat
	// TRANSFORMERS by a clear margin, otherwise prediction error could
	// hand a skew-fragile engine a workload it degrades on.
	//
	// The fallback only exists when TRANSFORMERS is in the candidate set: a
	// caller-supplied Config.Engines without it has opted out of the robust
	// default, so the cheapest candidate stands and Decision.Fallback stays
	// false by construction — there is nothing to fall back to.
	if d.Engine != engine.Transformers {
		for _, s := range scores {
			if s.Engine != engine.Transformers {
				continue
			}
			if !(s.CostMS > scores[0].CostMS*fallbackMargin) {
				d.Engine = engine.Transformers
				d.Fallback = true
			}
			break
		}
	}
	return d
}

// model holds the shared signals one planning pass prices engines on.
type model struct {
	a, b     DatasetStats
	perPage  float64 // elements per disk page
	tio      float64 // seconds per sequential page read
	seek     float64 // seconds per random access
	skew     float64
	cluster  float64
	contrast float64
	prebuilt bool
	maxRef   float64
	maxInMem int
	calib    *Calibration // nil = hand-tuned constants (all multipliers 1)
}

func (m model) pages(n int) float64 { return math.Ceil(float64(n) / m.perPage) }

// score prices one engine. Engines without a formula (external
// registrations) are never auto-selected but stay listed, so operators see
// them in the ranking and can request them explicitly.
func (m model) score(j engine.Joiner) Score {
	nA, nB := float64(m.a.Count), float64(m.b.Count)
	pagesBoth := m.pages(m.a.Count) + m.pages(m.b.Count)
	if j.Capabilities().InMemory && !FitsInMemory(m.a, m.b, m.maxInMem) {
		return Score{Engine: j.Name(), CostMS: math.Inf(1),
			Reason: fmt.Sprintf("in-memory engine, |A|+|B|=%d over the %d cap", m.a.Count+m.b.Count, m.maxInMem)}
	}
	switch j.Name() {
	case engine.Transformers:
		// Batched, mostly sequential reads; re-reads at finer granularity
		// scale with clustering but stay sequential (BENCH_0: <5% random
		// even on DenseCluster). Robustness: no skew blow-up term. The
		// adaptive-exploration overhead is folded into the io/cpu terms so
		// the decomposition sums to the same total the single formula gave.
		reread := 1.5 + m.cluster
		io := (pagesBoth*reread*m.tio + pagesBoth*0.03*m.seek) * transformersOverhead
		cpu := (nA + nB) * 12 * tComp * transformersOverhead
		build := 0.0
		if !m.prebuilt {
			build = (nA+nB)*tBuildPerElem + pagesBoth*m.tio
		}
		return m.priced(j, "batched sequential reads, adapts to skew",
			term{"io", io}, term{"cpu", cpu}, term{"build", build})
	case engine.PBSM:
		// Partition pages interleave on disk, so the join phase is random
		// reads over both datasets, inflated by replication; skewed tiles
		// also inflate the in-memory comparisons (§VII-C1/C3). The
		// replication surcharge is its own term so the fitter can learn the
		// blow-up coefficient separately from the base I/O.
		replication := 1 + 1.5*m.cluster + 0.1*m.skew
		ioBase := pagesBoth*(m.tio+m.seek) + pagesBoth*m.tio
		return m.priced(j, fmt.Sprintf("random partition reads, replication x%.2f", replication),
			term{"io", ioBase},
			term{"io_repl", (replication - 1) * ioBase},
			term{"cpu", (nA + nB) * 12 * replication * tComp},
			term{"build", (nA + nB) * tGridAssignPerElem})
	case engine.RTree:
		// Synchronized traversal: random node reads; node overlap grows
		// with clustering and multiplies visited pairs (§VII-A).
		overlap := 1.1 + 1.2*m.cluster + 0.1*m.skew
		ioUnit := pagesBoth * (m.tio + m.seek)
		return m.priced(j, fmt.Sprintf("sync traversal, overlap x%.2f", overlap),
			term{"io", 1.1 * ioUnit},
			term{"io_overlap", (overlap - 1.1) * ioUnit},
			term{"cpu", (nA + nB) * 20 * overlap * tComp},
			term{"build", (nA+nB)*tBuildPerElem*1.5 + pagesBoth*m.tio})
	case engine.GIPSY:
		// One directed walk per guide (smaller-side) element; the pages a
		// crawl touches (and the candidates it tests) shrink with the
		// §VI-A density contrast, the walk cost does not — GIPSY only
		// pays off when the contrast is extreme (§VII-C1).
		nG := math.Min(nA, nB)
		pagesDense := math.Max(m.pages(m.a.Count), m.pages(m.b.Count))
		focus := math.Sqrt(m.contrast) // crawl footprint shrinks with contrast
		return m.priced(j, fmt.Sprintf("per-element walks, contrast %.0fx", m.contrast),
			term{"walk", nG * tWalk},
			term{"cpu", nG * m.perPage * tComp / focus},
			term{"io", math.Min(pagesDense, nG) * 0.9 * (m.tio + 0.8*m.seek) / focus},
			term{"build", math.Max(nA, nB)*tBuildPerElem + pagesDense*m.tio})
	case engine.Grid:
		// Pure CPU: hash the smaller side, probe with the larger. Dense
		// cells turn probes quadratic, so clustering and skew are the
		// dominant penalty (the BICOD '15 sizing caps cells at the mean
		// element extent, which clustered data defeats). The per-probe
		// factor covers the multi-cell walk and dedup check around each
		// candidate test, not just the MBB compare (BENCH_2 measures
		// ~2.3e-7s per probe on uniform 100K). Splitting the blow-up into
		// cluster and skew terms is what lets the fitter learn the blow-up
		// coefficients (6 and 0.5) and not just a global tComp multiplier.
		blowup := 1 + 6*m.cluster + 0.5*m.skew
		probe := math.Max(nA, nB) * 24 * tComp
		return m.priced(j, fmt.Sprintf("in-memory hash, dense-cell blow-up x%.2f", blowup),
			term{"build", (nA + nB) * 1.5e-7},
			term{"probe", probe},
			term{"probe_cluster", probe * 6 * m.cluster},
			term{"probe_skew", probe * 0.5 * m.skew})
	case engine.InMem:
		// Pure CPU, cache-resident: quantile stripe partition, then
		// forward sweeps over SoA arrays. Clustering lengthens the sweep's
		// active window and skew unbalances stripes — both inflate
		// comparisons, but far less than grid's dense cells, because the
		// sweep only visits pairs that genuinely overlap on one axis.
		blowup := 1 + 2*m.cluster + 0.3*m.skew
		sweep := math.Max(nA, nB) * 4 * tComp
		return m.priced(j, fmt.Sprintf("cache-resident SoA sweep, overlap blow-up x%.2f", blowup),
			term{"partition", (nA + nB) * tInMemPartition},
			term{"sweep", sweep},
			term{"sweep_cluster", sweep * 2 * m.cluster},
			term{"sweep_skew", sweep * 0.3 * m.skew})
	case engine.Naive:
		if nA*nB > m.maxRef {
			return Score{Engine: j.Name(), CostMS: math.Inf(1),
				Reason: fmt.Sprintf("reference engine, |A|·|B|=%.2g over cap", nA*nB)}
		}
		return m.priced(j, "nested loop on tiny inputs", term{"product", nA * nB * 3e-9})
	default:
		return Score{Engine: j.Name(), CostMS: math.Inf(1), Reason: "no cost model; request explicitly"}
	}
}

// term is one named cost component in the model's native seconds.
type term struct {
	name string
	sec  float64
}

// priced assembles an engine's Score from its term decomposition: raw terms
// (ms) for the fitter, and the calibrated total (per-term multipliers from
// the Calibration, 1 when absent) as CostMS. Zero-valued terms are dropped —
// the fitter treats a missing term as zero, and keeping them out makes the
// recorded feature rows smaller and the fit better conditioned.
func (m model) priced(j engine.Joiner, reason string, terms ...term) Score {
	s := Score{Engine: j.Name(), Reason: reason}
	var calibrated float64
	for _, t := range terms {
		if t.sec == 0 {
			continue
		}
		s.Terms = append(s.Terms, CostTerm{Name: t.name, MS: t.sec * 1e3})
		calibrated += t.sec * m.calib.Multiplier(j.Name(), t.name)
	}
	s.CostMS = float64(time.Duration(calibrated*float64(time.Second))) / float64(time.Millisecond)
	return s
}
