// Package planner selects a join engine per request from cheap dataset
// statistics. The paper's thesis is that no fixed data layout is robust to
// non-uniform distributions (§I, §VII); the planner is the serving-side
// consequence: it prices every registered engine on a handful of signals a
// single O(n) pass extracts — cardinality, an MBR density histogram over a
// coarse grid, skew and clustering coefficients, and the §VI-A density
// contrast the adaptive join itself steers by — and picks the cheapest,
// falling back to TRANSFORMERS whenever the prediction is inconclusive.
//
// The cost formulas are calibrated against the recorded cross-engine
// comparison in BENCH_1.json (and the BENCH_0.json baseline): modeled disk
// time is dominated by random page reads (~5ms each under the default disk
// model), which is exactly what sinks the fixed-layout engines on skewed
// data, while the in-memory engines price as pure CPU.
package planner

import (
	"math"

	"repro/internal/core"
	"repro/internal/geom"
)

// histBuckets is the size of the density histogram: bucket k counts occupied
// grid cells holding [2^k, 2^(k+1)) element centers.
const histBuckets = 16

// DatasetStats is the cheap statistical fingerprint of one dataset. It is
// computed in one pass plus a coarse-grid aggregation and cached by the
// serving catalog per dataset version.
type DatasetStats struct {
	// Count is the dataset cardinality.
	Count int `json:"count"`
	// MBB is the tight bounding box of the dataset.
	MBB geom.Box `json:"-"`
	// AvgExtent is the mean element side length over all dimensions.
	AvgExtent float64 `json:"avg_extent"`
	// VolumePerElem is MBB volume / Count — the sparseness measure whose
	// ratio between two datasets is the §VI-A density contrast.
	VolumePerElem float64 `json:"volume_per_elem"`
	// GridDim is the per-dimension resolution of the analysis grid.
	GridDim int `json:"grid_dim"`
	// OccupiedCells counts grid cells holding at least one element center;
	// TotalCells is GridDim^3.
	OccupiedCells int `json:"occupied_cells"`
	TotalCells    int `json:"total_cells"`
	// MaxCellCount is the densest cell's center count.
	MaxCellCount int `json:"max_cell_count"`
	// SkewCV is the coefficient of variation (stddev/mean) of per-cell
	// center counts over all grid cells. Uniform data stays near the
	// Poisson floor 1/sqrt(mean); clustered data runs far above it.
	SkewCV float64 `json:"skew_cv"`
	// ClusterFraction is the fraction of elements whose center lies in a
	// cell denser than 4x the mean — the mass a space-oriented partitioner
	// replicates and a fixed tree overlaps on.
	ClusterFraction float64 `json:"cluster_fraction"`
	// Histogram is the MBR density histogram: Histogram[k] counts occupied
	// cells with [2^k, 2^(k+1)) centers.
	Histogram []int `json:"histogram"`
}

// Analyze computes the statistical fingerprint of a dataset in one pass over
// the elements plus one pass over a coarse grid (at most 32^3 cells).
func Analyze(elems []geom.Element) DatasetStats {
	st := DatasetStats{Count: len(elems), MBB: geom.MBBOf(elems)}
	if len(elems) == 0 {
		st.Histogram = make([]int, histBuckets)
		return st
	}
	var extent float64
	for _, e := range elems {
		for d := 0; d < geom.Dims; d++ {
			extent += e.Box.Side(d)
		}
	}
	st.AvgExtent = extent / float64(len(elems)*geom.Dims)
	vol := st.MBB.Volume()
	if vol <= 0 {
		vol = 1e-12
	}
	st.VolumePerElem = vol / float64(len(elems))

	// Coarse grid sized so uniform data averages ~8 centers per cell,
	// clamped to keep both tiny datasets and the aggregation pass cheap.
	dim := int(math.Cbrt(float64(len(elems)) / 8))
	if dim < 4 {
		dim = 4
	}
	if dim > 32 {
		dim = 32
	}
	st.GridDim = dim
	st.TotalCells = dim * dim * dim
	counts := make([]int, st.TotalCells)
	for _, e := range elems {
		c := e.Box.Center()
		idx := 0
		for d := 0; d < geom.Dims; d++ {
			side := st.MBB.Side(d) / float64(dim)
			i := 0
			if side > 0 {
				i = int((c[d] - st.MBB.Lo[d]) / side)
			}
			if i < 0 {
				i = 0
			}
			if i >= dim {
				i = dim - 1
			}
			idx = idx*dim + i
		}
		counts[idx]++
	}

	mean := float64(len(elems)) / float64(st.TotalCells)
	var variance float64
	st.Histogram = make([]int, histBuckets)
	clusterThreshold := 4 * mean
	clustered := 0
	for _, c := range counts {
		d := float64(c) - mean
		variance += d * d
		if c == 0 {
			continue
		}
		st.OccupiedCells++
		if c > st.MaxCellCount {
			st.MaxCellCount = c
		}
		bucket := int(math.Log2(float64(c)))
		if bucket >= histBuckets {
			bucket = histBuckets - 1
		}
		st.Histogram[bucket]++
		if float64(c) > clusterThreshold {
			clustered += c
		}
	}
	variance /= float64(st.TotalCells)
	if mean > 0 {
		st.SkewCV = math.Sqrt(variance) / mean
	}
	st.ClusterFraction = float64(clustered) / float64(len(elems))
	return st
}

// DensityContrast returns the §VI-A density contrast between two datasets:
// max(r, 1/r) of the volume-per-element ratio. 1 means identical density;
// the paper's Fig. 10 sweeps this from 1x to 1000x.
func DensityContrast(a, b DatasetStats) float64 {
	if a.Count == 0 || b.Count == 0 {
		return 1
	}
	// core.DensityRatio is the same volume-per-element comparison the
	// adaptive join's cost model steers role switches by (Eq. 5).
	r := core.DensityRatio(a.MBB.Volume(), a.Count, b.MBB.Volume(), b.Count)
	if r < 1 {
		r = 1 / r
	}
	return r
}
