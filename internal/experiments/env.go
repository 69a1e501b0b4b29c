// Package experiments regenerates every table and figure of the paper's
// evaluation (§6 and Appendix C) on the synthetic dataset equivalents.
// Each experiment is addressed by the ID listed in DESIGN.md §5 and returns
// renderable tables; cmd/vsjbench drives the full suite and bench_test.go
// wraps each experiment in a testing.B benchmark.
package experiments

import (
	"fmt"
	"sort"
	"time"

	"lshjoin/internal/dataset"
	"lshjoin/internal/exactjoin"
	"lshjoin/internal/lsh"
	"lshjoin/internal/vecmath"
)

// TauGrid is the threshold grid of the paper's figures (0.1 … 1.0).
var TauGrid = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}

// TauTable is the sparser grid of the paper's tables (Tables 1–2).
var TauTable = []float64{0.1, 0.3, 0.5, 0.7, 0.9}

// Env bundles one dataset with its LSH index and exact ground truth, shared
// by all experiments that use that dataset.
type Env struct {
	Data      dataset.Dataset
	Family    lsh.SimHash
	Snap      *lsh.Snapshot      // immutable index view all experiments read
	Group     *lsh.GroupSnapshot // Snap as the one-shard capture estimators are built over
	BuildTime time.Duration
	GenTime   time.Duration

	joiner *exactjoin.Joiner
	truth  map[float64]int64
}

// NewEnv generates the dataset, builds a k×ℓ SimHash index (k ≤ 0 uses the
// dataset's recommended k), and prepares the exact joiner.
func NewEnv(kind dataset.Kind, n, k, ell int, seed uint64) (*Env, error) {
	t0 := time.Now()
	d, err := dataset.Generate(kind, n, seed)
	if err != nil {
		return nil, err
	}
	genTime := time.Since(t0)
	if k <= 0 {
		k = d.RecommendedK
	}
	if ell <= 0 {
		ell = 1
	}
	fam := lsh.NewSimHash(seed ^ 0x15AB1E)
	t0 = time.Now()
	snap, err := lsh.BuildSnapshot(d.Vectors, fam, k, ell)
	if err != nil {
		return nil, err
	}
	return &Env{
		Data:      d,
		Family:    fam,
		Snap:      snap,
		Group:     lsh.SingleSnapshot(snap),
		BuildTime: time.Since(t0),
		GenTime:   genTime,
		joiner:    exactjoin.NewJoiner(d.Vectors),
		truth:     make(map[float64]int64),
	}, nil
}

// Truth returns the exact join size at tau, computing and caching the whole
// requested grid on first miss (one inverted-index pass covers all taus).
func (e *Env) Truth(taus ...float64) (map[float64]int64, error) {
	var missing []float64
	for _, t := range taus {
		if _, ok := e.truth[t]; !ok {
			missing = append(missing, t)
		}
	}
	if len(missing) > 0 {
		counts, err := e.joiner.Counts(missing)
		if err != nil {
			return nil, err
		}
		for i, t := range missing {
			e.truth[t] = counts[i]
		}
	}
	out := make(map[float64]int64, len(taus))
	for _, t := range taus {
		out[t] = e.truth[t]
	}
	return out, nil
}

// TruthAt returns the exact join size at one threshold.
func (e *Env) TruthAt(tau float64) (int64, error) {
	m, err := e.Truth(tau)
	if err != nil {
		return 0, err
	}
	return m[tau], nil
}

// StratumTruth computes, for each requested tau, the exact number of true
// pairs inside stratum H of table t (J_H) by enumerating co-bucketed pairs.
// Θ(N_H) similarity evaluations regardless of how many taus are asked.
func (e *Env) StratumTruth(t int, taus []float64) map[float64]int64 {
	sorted := append([]float64(nil), taus...)
	sort.Float64s(sorted)
	counts := make([]int64, len(sorted))
	tab := e.Snap.Table(t)
	data := e.Data.Vectors
	tab.ForEachIntraPair(func(i, j int32) bool {
		s := vecmath.Cosine(data[i], data[j])
		// All thresholds ≤ s gain a pair.
		idx := sort.SearchFloat64s(sorted, s)
		if !(idx < len(sorted) && sorted[idx] == s) {
			idx--
		}
		for x := 0; x <= idx; x++ {
			counts[x]++
		}
		return true
	})
	out := make(map[float64]int64, len(sorted))
	for i, tau := range sorted {
		out[tau] = counts[i]
	}
	return out
}

// Describe summarizes the environment for experiment headers.
func (e *Env) Describe() string {
	tab := e.Snap.Table(0)
	return fmt.Sprintf("%s: n=%d k=%d ℓ=%d buckets=%d N_H=%d build=%v",
		e.Data.Name, e.Data.N(), e.Snap.K(), e.Snap.L(), tab.NumBuckets(), tab.NH(), e.BuildTime.Round(time.Millisecond))
}
