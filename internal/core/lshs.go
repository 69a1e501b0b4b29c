package core

import (
	"fmt"
	"math"

	"lshjoin/internal/lsh"
	"lshjoin/internal/sample"
	"lshjoin/internal/xrand"
)

// LSHS is the LSH-S estimator of §4.3: it removes the uniformity assumption
// of J_U by weighting the collision curve with the empirical similarity
// distribution of a random pair sample. With f(s) = p(s)^k:
//
//	P̂(H|T) = Σ_{(u,v)∈S_T} f(sim(u,v)) / |S_T|   (Equation 5)
//	P̂(H|F) = Σ_{(u,v)∈S_F} f(sim(u,v)) / |S_F|   (Equation 6)
//
// plugged into Equation (1). When the sample contains no true pair — the
// failure mode §6.2 reports at high thresholds — the estimator falls back to
// the analytic P(H|T) of the uniformity analysis, which is exactly why its
// high-threshold estimates are unreliable.
type LSHS struct {
	mPairs, nh int64 // M = C(n, 2) and the merged N_H of table 0
	k          int
	family     lsh.Family
	view       sliceView
	n          int
	m          int
}

// NewMergedLSHS builds the estimator over table 0 of a shard-snapshot
// vector, with the merged N_H and the dense union corpus; m is the
// pair-sample size (defaults to n). Like all estimators, it binds to the
// capture at construction and is immune to concurrent inserts.
func NewMergedLSHS(gs *lsh.GroupSnapshot, m int) (*LSHS, error) {
	if gs == nil {
		return nil, fmt.Errorf("core: LSH-S needs a group snapshot")
	}
	n := gs.N()
	if n < 2 {
		return nil, fmt.Errorf("core: LSH-S needs at least 2 vectors, got %d", n)
	}
	if m <= 0 {
		m = n
	}
	ms, err := NewMergedStratum(gs, 0)
	if err != nil {
		return nil, err
	}
	return &LSHS{mPairs: ms.M(), nh: ms.NH(), k: gs.K(), family: gs.Family(), view: sliceView(gs.Data()), n: n, m: m}, nil
}

// Name implements Estimator.
func (e *LSHS) Name() string { return "LSH-S" }

// Estimate implements Estimator.
func (e *LSHS) Estimate(tau float64, rng *xrand.RNG) (float64, error) {
	if err := validateTau(tau); err != nil {
		return 0, err
	}
	k := float64(e.k)
	f := func(s float64) float64 {
		return math.Pow(e.family.CollisionProb(s), k)
	}
	var sumT, sumF float64
	var nT, nF int
	for s := 0; s < e.m; s++ {
		i, j := sample.UniformPair(rng, e.n)
		sim := e.family.Sim(e.view.At(i), e.view.At(j))
		if sim >= tau {
			sumT += f(sim)
			nT++
		} else {
			sumF += f(sim)
			nF++
		}
	}
	var pht float64
	if nT > 0 {
		pht = sumT / float64(nT)
	} else {
		// No true pair sampled: fall back to the LSH-function analysis.
		pht, _ = conditionalProbs(e.family, e.k, tau)
	}
	var phf float64
	if nF > 0 {
		phf = sumF / float64(nF)
	} else {
		_, phf = conditionalProbs(e.family, e.k, tau)
	}
	m := float64(e.mPairs)
	nh := float64(e.nh)
	if pht-phf <= 0 {
		return 0, nil
	}
	return clampEstimate((nh-m*phf)/(pht-phf), m), nil
}
