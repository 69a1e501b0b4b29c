package core

import (
	"fmt"

	"lshjoin/internal/lsh"
	"lshjoin/internal/sample"
	"lshjoin/internal/stats"
	"lshjoin/internal/vecmath"
	"lshjoin/internal/xrand"
)

// MedianSS is the median estimator of App. B.2.1: LSH-SS applied
// independently to each of the ℓ tables of an index, returning the median of
// the per-table estimates. By the standard Chernoff argument, the median is
// within the same error factor as a single estimate with failure probability
// at most 2^(−ℓ/2).
type MedianSS struct {
	subs []*LSHSS
}

// NewMergedMedianSS builds the median estimator over a shard-snapshot
// vector: one merged LSH-SS per table with shared options, median of the
// per-table estimates.
func NewMergedMedianSS(gs *lsh.GroupSnapshot, sim SimFunc, opts ...LSHSSOption) (*MedianSS, error) {
	if gs == nil {
		return nil, fmt.Errorf("core: merged median estimator needs a group snapshot")
	}
	subs := make([]*LSHSS, 0, gs.L())
	for t := 0; t < gs.L(); t++ {
		s, err := NewMergedLSHSS(gs, sim, append(append([]LSHSSOption(nil), opts...), WithTable(t))...)
		if err != nil {
			return nil, err
		}
		subs = append(subs, s)
	}
	return &MedianSS{subs: subs}, nil
}

// Name implements Estimator.
func (e *MedianSS) Name() string { return "LSH-SS(median)" }

// Estimate implements Estimator. The ℓ per-table estimates are independent,
// so each runs on its own split RNG stream, fanned across cores; collecting
// them in table order keeps the median deterministic for a given rng state
// regardless of GOMAXPROCS.
func (e *MedianSS) Estimate(tau float64, rng *xrand.RNG) (float64, error) {
	ests := make([]float64, len(e.subs))
	errs := make([]error, len(e.subs))
	rngs := rng.SplitN(len(e.subs))
	runShards(len(e.subs), func(t int) {
		ests[t], errs[t] = e.subs[t].Estimate(tau, rngs[t])
	})
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return stats.Median(ests), nil
}

// groupTables is the multi-table view the virtual-bucket estimator reads: a
// shard-snapshot vector plus its per-table merged strata, which supply the
// per-table stratum-H weights and samplers; the group supplies the
// cross-table membership tests.
type groupTables struct {
	gs     *lsh.GroupSnapshot
	data   sliceView
	strata []*MergedStratum
}

func (v groupTables) L() int                          { return v.gs.L() }
func (v groupTables) N() int                          { return v.gs.N() }
func (v groupTables) At(i int) vecmath.Vector         { return v.data.At(i) }
func (v groupTables) TableNH(t int) int64             { return v.strata[t].NH() }
func (v groupTables) SameAnyBucket(i, j int) bool     { return v.gs.SameAnyBucket(i, j) }
func (v groupTables) BucketMultiplicity(i, j int) int { return v.gs.BucketMultiplicity(i, j) }
func (v groupTables) SampleTablePair(t int, rng *xrand.RNG) (i, j int, ok bool) {
	return v.strata[t].SamplePair(rng)
}

// VirtualSS is the virtual-bucket estimator of App. B.2.1: a pair belongs to
// stratum H if the two vectors share a bucket in ANY of the ℓ tables, which
// relaxes an overly selective g (large k).
//
// The appendix leaves open how to obtain N_H of the union (enumerating it is
// infeasible, and its suggested rejection sampling from V×V has acceptance
// probability N_H/M ≈ 0). We instead sample stratum H by importance
// sampling from the per-table mixture — draw table t with probability
// N_H,t/Σ N_H,t, draw a co-bucketed pair there, and weight by the reciprocal
// of the pair's bucket multiplicity — which gives unbiased estimates of both
// |S_H^∪| and J_H. DESIGN.md records this as a documented extension.
type VirtualSS struct {
	view groupTables
	sim  SimFunc

	mH, mL    int
	delta     int
	damp      DampMode
	cs        float64
	maxReject int

	mixture []float64 // per-table N_H weights
	totalNH float64   // Σ_t N_H,t
}

// NewMergedVirtualSS builds the virtual-bucket estimator over a
// shard-snapshot vector: the per-table mixture weights are the merged
// N_H,t sums and the importance draws come from the merged per-table
// samplers, with bucket multiplicity evaluated across shards. The LSHSS
// options WithSampleSizes, WithDelta and WithDamp are honored.
func NewMergedVirtualSS(gs *lsh.GroupSnapshot, sim SimFunc, opts ...LSHSSOption) (*VirtualSS, error) {
	if gs == nil {
		return nil, fmt.Errorf("core: merged virtual-bucket estimator needs a group snapshot")
	}
	if sim == nil {
		sim = vecmath.Cosine
	}
	// Reuse LSHSS option plumbing to resolve the n-scaled defaults.
	probe, err := newSSBase(gs.N(), sim, opts)
	if err != nil {
		return nil, err
	}
	// The virtual-bucket stratum spans all tables, so WithTable is
	// meaningless here — but an out-of-range index is still a caller
	// configuration error worth failing fast on.
	if probe.tableIdx < 0 || probe.tableIdx >= gs.L() {
		return nil, fmt.Errorf("core: table %d out of range [0, %d)", probe.tableIdx, gs.L())
	}
	view := groupTables{gs: gs, data: sliceView(gs.Data())}
	for t := 0; t < gs.L(); t++ {
		ms, err := NewMergedStratum(gs, t)
		if err != nil {
			return nil, err
		}
		view.strata = append(view.strata, ms)
	}
	mH, mL, delta, damp, cs := probe.Params()
	e := &VirtualSS{
		view: view, sim: sim,
		mH: mH, mL: mL, delta: delta, damp: damp, cs: cs,
		maxReject: 4096,
	}
	e.mixture = make([]float64, view.L())
	for t := range e.mixture {
		e.mixture[t] = float64(view.TableNH(t))
		e.totalNH += e.mixture[t]
	}
	return e, nil
}

// Name implements Estimator.
func (e *VirtualSS) Name() string { return "LSH-SS(virtual)" }

// Estimate implements Estimator.
func (e *VirtualSS) Estimate(tau float64, rng *xrand.RNG) (float64, error) {
	if err := validateTau(tau); err != nil {
		return 0, err
	}
	jh := e.sampleH(tau, rng)
	jl := e.sampleL(tau, rng)
	return clampEstimate(jh+jl, pairsOf(e.view.N())), nil
}

// sampleH draws from the per-table mixture with multiplicity correction:
// for pair (u,v) drawn from table t, P(draw) = mult(u,v)/Σ N_H,t, so the
// weight Σ N_H,t / mult is an unbiased Horvitz–Thompson factor for sums over
// the union stratum.
func (e *VirtualSS) sampleH(tau float64, rng *xrand.RNG) float64 {
	if e.totalNH == 0 {
		return 0
	}
	var sum float64 // Σ [sim ≥ τ]/mult over draws
	for s := 0; s < e.mH; s++ {
		t := e.pickTable(rng)
		i, j, ok := e.view.SampleTablePair(t, rng)
		if !ok {
			continue
		}
		if e.sim(e.view.At(i), e.view.At(j)) >= tau {
			sum += 1 / float64(e.view.BucketMultiplicity(i, j))
		}
	}
	return sum * e.totalNH / float64(e.mH)
}

// NHVirtual estimates |S_H^∪| with m mixture draws (exported for tests and
// diagnostics; same Horvitz–Thompson construction as sampleH).
func (e *VirtualSS) NHVirtual(m int, rng *xrand.RNG) float64 {
	if e.totalNH == 0 || m <= 0 {
		return 0
	}
	var sum float64
	for s := 0; s < m; s++ {
		t := e.pickTable(rng)
		i, j, ok := e.view.SampleTablePair(t, rng)
		if !ok {
			continue
		}
		sum += 1 / float64(e.view.BucketMultiplicity(i, j))
	}
	return sum * e.totalNH / float64(m)
}

func (e *VirtualSS) pickTable(rng *xrand.RNG) int {
	x := rng.Float64() * e.totalNH
	var acc float64
	for t, w := range e.mixture {
		acc += w
		if x < acc {
			return t
		}
	}
	return len(e.mixture) - 1
}

// sampleL mirrors LSH-SS's SampleL with the virtual-bucket membership test
// and N_L approximated by M − N̂_H (the union N_H is itself estimated; the
// approximation error is second-order because N_H ≪ M in any useful index).
func (e *VirtualSS) sampleL(tau float64, rng *xrand.RNG) float64 {
	n := e.view.N()
	m := pairsOf(n)
	nhHat := e.NHVirtual(minInt(e.mH, 2048), rng)
	nl := m - nhHat
	if nl <= 0 {
		return 0
	}
	notSame := func(i, j int) bool { return !e.view.SameAnyBucket(i, j) }
	res := sample.Adaptive(e.delta, e.mL, func() (bool, bool) {
		i, j, ok := sample.RejectPair(rng, n, notSame, e.maxReject)
		if !ok {
			return false, false
		}
		return e.sim(e.view.At(i), e.view.At(j)) >= tau, true
	})
	switch {
	case res.Reliable:
		return float64(res.Hits) * nl / float64(res.Taken)
	case e.damp == DampAuto:
		cs := float64(res.Hits) / float64(e.delta)
		return float64(res.Hits) * cs * nl / float64(e.mL)
	case e.damp == DampConst:
		return float64(res.Hits) * e.cs * nl / float64(e.mL)
	default:
		return float64(res.Hits)
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
