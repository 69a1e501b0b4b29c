package core

import (
	"fmt"
	"math"
	"sort"

	"lshjoin/internal/sample"
	"lshjoin/internal/vecmath"
	"lshjoin/internal/xrand"
)

// GeneralRS is uniform pair sampling for the general (non-self) VSJ problem
// of App. B.2.2: estimate |{(u,v) : u ∈ U, v ∈ V, sim(u,v) ≥ τ}| from m
// uniform cross pairs.
type GeneralRS struct {
	left, right []vecmath.Vector
	sim         SimFunc
	m           int
}

// NewGeneralRS builds the estimator; m defaults to 1.5·(|U|+|V|)/2.
func NewGeneralRS(left, right []vecmath.Vector, sim SimFunc, m int) (*GeneralRS, error) {
	if len(left) == 0 || len(right) == 0 {
		return nil, fmt.Errorf("core: general RS needs non-empty collections")
	}
	if sim == nil {
		sim = vecmath.Cosine
	}
	if m <= 0 {
		m = 3 * (len(left) + len(right)) / 4
	}
	return &GeneralRS{left: left, right: right, sim: sim, m: m}, nil
}

// Name implements Estimator.
func (e *GeneralRS) Name() string { return "RS(general)" }

// Estimate implements Estimator.
func (e *GeneralRS) Estimate(tau float64, rng *xrand.RNG) (float64, error) {
	if err := validateTau(tau); err != nil {
		return 0, err
	}
	hits := 0
	for s := 0; s < e.m; s++ {
		u := rng.Intn(len(e.left))
		v := rng.Intn(len(e.right))
		if e.sim(e.left[u], e.right[v]) >= tau {
			hits++
		}
	}
	m := float64(len(e.left)) * float64(len(e.right))
	return clampEstimate(float64(hits)*m/float64(e.m), m), nil
}

// BipartiteStratum abstracts the cross-pair space partition the general
// estimator samples over: stratum H (cross pairs whose buckets share a g
// value, weight-sampled) versus everything else. Estimators sample through
// a group pair's merged view (MergedBipartiteStratum, see sharded.go); one
// lsh.Bipartite matching implements it as well, which is what lets tests
// check a 1×1 merged view draw for draw against the plain matching. The view
// is immutable, so callers serving repeated estimates over an unchanged
// capture should build it once (see BipartiteStratumCache) and construct
// estimators over it per call.
type BipartiteStratum interface {
	// M is the total number of cross pairs |U|·|V|.
	M() int64
	// NH is the number of cross pairs whose buckets share a g value.
	NH() int64
	// NL is M − N_H.
	NL() int64
	// SamplePair draws a uniform random stratum-H cross pair; ok is false
	// when N_H = 0.
	SamplePair(rng *xrand.RNG) (u, v int, ok bool)
	// SameBucket reports whether u ∈ U and v ∈ V have equal g values.
	SameBucket(u, v int) bool
	// Sim returns the family similarity between u ∈ U and v ∈ V.
	Sim(u, v int) float64
	// LeftN and RightN return the collection sizes |U| and |V|.
	LeftN() int
	RightN() int
}

// GeneralLSHSS is LSH-SS for non-self joins (App. B.2.2): stratum H is the
// set of cross pairs with equal g values (sampled through a bipartite bucket
// matching with weight b_j·c_i), stratum L is everything else (rejection
// sampling).
type GeneralLSHSS struct {
	bp BipartiteStratum

	mH, mL    int
	delta     int
	damp      DampMode
	cs        float64
	maxReject int
}

// NewGeneralLSHSSOver builds the estimator over a bipartite stratum view —
// a MergedBipartiteStratum, typically cached across estimates by a
// BipartiteStratumCache. Defaults mirror the self-join case with
// n = (|U|+|V|)/2: m_H = m_L = n, δ = ⌈log₂ n⌉. Similarities are the view's
// family similarity.
func NewGeneralLSHSSOver(bp BipartiteStratum, opts ...GeneralOption) (*GeneralLSHSS, error) {
	if bp == nil {
		return nil, fmt.Errorf("core: general LSH-SS needs a bipartite stratum")
	}
	return newGeneralLSHSS(bp, opts)
}

// newGeneralLSHSS binds the estimator to any bipartite stratum view.
func newGeneralLSHSS(bp BipartiteStratum, opts []GeneralOption) (*GeneralLSHSS, error) {
	n := (bp.LeftN() + bp.RightN()) / 2
	if n < 1 {
		n = 1
	}
	e := &GeneralLSHSS{
		bp: bp,
		mH: n, mL: n,
		delta:     int(math.Ceil(math.Log2(float64(n + 1)))),
		damp:      DampOff,
		cs:        1,
		maxReject: 4096,
	}
	for _, opt := range opts {
		opt(e)
	}
	if e.mH < 1 || e.mL < 1 || e.delta < 1 {
		return nil, fmt.Errorf("core: invalid general LSH-SS parameters")
	}
	return e, nil
}

// GeneralOption customizes GeneralLSHSS.
type GeneralOption func(*GeneralLSHSS)

// WithGeneralSampleSizes overrides m_H and m_L.
func WithGeneralSampleSizes(mH, mL int) GeneralOption {
	return func(e *GeneralLSHSS) { e.mH, e.mL = mH, mL }
}

// WithGeneralDamp selects the dampened scale-up.
func WithGeneralDamp(mode DampMode, cs float64) GeneralOption {
	return func(e *GeneralLSHSS) { e.damp, e.cs = mode, cs }
}

// Name implements Estimator.
func (e *GeneralLSHSS) Name() string { return "LSH-SS(general)" }

// Estimate implements Estimator.
func (e *GeneralLSHSS) Estimate(tau float64, rng *xrand.RNG) (float64, error) {
	if err := validateTau(tau); err != nil {
		return 0, err
	}
	m := float64(e.bp.M())
	// SampleH over matched buckets.
	var jh float64
	if nh := e.bp.NH(); nh > 0 {
		hits := 0
		for s := 0; s < e.mH; s++ {
			u, v, ok := e.bp.SamplePair(rng)
			if !ok {
				break
			}
			if e.bp.Sim(u, v) >= tau {
				hits++
			}
		}
		jh = float64(hits) * float64(nh) / float64(e.mH)
	}
	// SampleL via rejection on g(u) = g(v).
	var jl float64
	if nl := e.bp.NL(); nl > 0 {
		res := sample.Adaptive(e.delta, e.mL, func() (bool, bool) {
			for t := 0; t < e.maxReject; t++ {
				u := rng.Intn(e.bp.LeftN())
				v := rng.Intn(e.bp.RightN())
				if e.bp.SameBucket(u, v) {
					continue
				}
				return e.bp.Sim(u, v) >= tau, true
			}
			return false, false
		})
		switch {
		case res.Reliable:
			jl = float64(res.Hits) * float64(nl) / float64(res.Taken)
		case e.damp == DampAuto:
			jl = float64(res.Hits) * (float64(res.Hits) / float64(e.delta)) * float64(nl) / float64(e.mL)
		case e.damp == DampConst:
			jl = float64(res.Hits) * e.cs * float64(nl) / float64(e.mL)
		default:
			jl = float64(res.Hits)
		}
	}
	return clampEstimate(jh+jl, m), nil
}

// EstimateCurve estimates the general selectivity curve J(τ) for a grid of
// thresholds from a single sampling pass — the cross-join analogue of
// LSHSS.EstimateCurve, for an optimizer costing one bipartite similarity
// predicate at many candidate thresholds.
//
// SampleH draws m_H stratum-H cross pairs once and records their
// similarities; Ĵ_H(τ) is the recorded count ≥ τ scaled by N_H/m_H. SampleL
// draws one stream of up to m_L stratum-L cross pairs and replays the
// adaptive stopping rule per threshold, falling back to the safe lower bound
// (or the configured dampened scale-up) where the δ-th success never
// arrives. The result aligns with taus and is monotone non-increasing after
// sorting taus ascending.
func (e *GeneralLSHSS) EstimateCurve(taus []float64, rng *xrand.RNG) ([]float64, error) {
	if len(taus) == 0 {
		return nil, fmt.Errorf("core: empty threshold grid")
	}
	for _, tau := range taus {
		if err := validateTau(tau); err != nil {
			return nil, err
		}
	}
	order := make([]int, len(taus))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return taus[order[a]] < taus[order[b]] })

	// One SampleH pass: record similarities of matched-bucket cross pairs.
	nh := e.bp.NH()
	simsH := make([]float64, 0, e.mH)
	if nh > 0 {
		for s := 0; s < e.mH; s++ {
			u, v, ok := e.bp.SamplePair(rng)
			if !ok {
				break
			}
			simsH = append(simsH, e.bp.Sim(u, v))
		}
	}
	sort.Float64s(simsH)

	// One SampleL stream: record similarities in draw order.
	nl := e.bp.NL()
	simsL := make([]float64, 0, e.mL)
	if nl > 0 {
	draws:
		for s := 0; s < e.mL; s++ {
			for t := 0; t < e.maxReject; t++ {
				u := rng.Intn(e.bp.LeftN())
				v := rng.Intn(e.bp.RightN())
				if e.bp.SameBucket(u, v) {
					continue
				}
				simsL = append(simsL, e.bp.Sim(u, v))
				continue draws
			}
			break // rejection budget exhausted: stratum L is all but gone
		}
	}

	out := make([]float64, len(taus))
	for _, idx := range order {
		tau := taus[idx]
		var jh float64
		if len(simsH) > 0 {
			hits := len(simsH) - sort.SearchFloat64s(simsH, tau)
			jh = float64(hits) * float64(nh) / float64(e.mH)
		}
		var jl float64
		if nl > 0 {
			hits := 0
			stop := -1
			for i, s := range simsL {
				if s >= tau {
					hits++
					if hits == e.delta {
						stop = i + 1 // the adaptive loop stops here
						break
					}
				}
			}
			switch {
			case stop > 0:
				jl = float64(e.delta) * float64(nl) / float64(stop)
			case e.damp == DampAuto:
				jl = float64(hits) * (float64(hits) / float64(e.delta)) * float64(nl) / float64(e.mL)
			case e.damp == DampConst:
				jl = float64(hits) * e.cs * float64(nl) / float64(e.mL)
			default:
				jl = float64(hits)
			}
		}
		out[idx] = clampEstimate(jh+jl, float64(e.bp.M()))
	}
	return out, nil
}

// ExactGeneralJoin counts the true cross-join size by brute force; it is the
// test oracle for the general estimators (O(|U|·|V|)).
func ExactGeneralJoin(left, right []vecmath.Vector, sim SimFunc, tau float64) int64 {
	if sim == nil {
		sim = vecmath.Cosine
	}
	var c int64
	for _, u := range left {
		for _, v := range right {
			if sim(u, v) >= tau {
				c++
			}
		}
	}
	return c
}
