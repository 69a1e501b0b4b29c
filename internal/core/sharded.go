package core

import (
	"fmt"
	"sort"

	"lshjoin/internal/lsh"
	"lshjoin/internal/xrand"
)

// Merged strata over a captured shard-snapshot vector (lsh.GroupSnapshot).
//
// Bucket keys are shard-invariant, so the union index's stratum H decomposes
// exactly over the partition: a union bucket whose members split m_1..m_S
// across shards contributes C(Σm_s, 2) = Σ_s C(m_s, 2) + Σ_{a<b} m_a·m_b
// pairs. MergedStratum materializes that identity as a weight view over
// S intra-shard components (the per-shard tables, whose Fenwick weight
// indexes already serve per-bucket CumWeight sums) plus S·(S−1)/2
// cross-shard bipartite components (lsh.Bipartite over each shard pair).
// N_H sums component weights, SamplePair picks a component by its cumulative
// weight and then delegates to the component's own weighted bucket sampler,
// and SameBucket compares bucket keys across shards — together exactly the
// stratum interface Algorithm 1 samples through, so LSH-SS, its curve
// variant, the median estimator and the virtual-bucket estimator all run
// over shards unchanged, with the same deterministic RNG-split parallel
// sampling discipline at every shard count.
//
// Every estimator in this package is built over a shard-snapshot vector;
// an unsharded index is the one-shard case (lsh.SingleSnapshot). There is
// one estimator path: a view with exactly one component samples straight
// from it, with no component-pick draw, so a one-shard view draws exactly
// what its lsh.Table draws (and a 1×1 cross view exactly what its
// lsh.Bipartite draws).

// stratumComponent is one additive slice of the merged stratum H: an
// intra-shard table or a cross-shard bucket matching. samplePair returns
// dense union ids.
type stratumComponent interface {
	weight() int64
	samplePair(rng *xrand.RNG) (i, j int, ok bool)
}

// intraComponent wraps shard s's table: pairs co-bucketed within the shard.
type intraComponent struct {
	tab *lsh.Table
	off int
}

func (c intraComponent) weight() int64 { return c.tab.NH() }

func (c intraComponent) samplePair(rng *xrand.RNG) (i, j int, ok bool) {
	i, j, ok = c.tab.SamplePair(rng)
	return i + c.off, j + c.off, ok
}

// crossComponent wraps the bipartite matching of one shard pair: pairs whose
// members live on different shards but share a bucket key.
type crossComponent struct {
	bp         *lsh.Bipartite
	offL, offR int
}

func (c crossComponent) weight() int64 { return c.bp.NH() }

func (c crossComponent) samplePair(rng *xrand.RNG) (i, j int, ok bool) {
	u, v, ok := c.bp.SamplePair(rng)
	return u + c.offL, v + c.offR, ok
}

// componentList is the additive weight view both merged strata share: the
// components in order, their cumulative weights, N_H, and the
// weight-proportional component pick SamplePair descends by.
type componentList struct {
	comps []stratumComponent
	cum   []int64 // cumulative component weights; cum[len-1] = NH
	nh    int64
}

func (cl *componentList) add(c stratumComponent) {
	cl.nh += c.weight()
	cl.comps = append(cl.comps, c)
	cl.cum = append(cl.cum, cl.nh)
}

// NH returns the union stratum-H size: Σ over components, exactly equal to
// the N_H one index (or one bipartite matching) over the union corpus would
// maintain.
func (cl *componentList) NH() int64 { return cl.nh }

// Components returns the number of additive weight components: S intra-shard
// plus C(S, 2) cross-shard for a self-join view, S_left·S_right shard pairs
// for a cross view.
func (cl *componentList) Components() int { return len(cl.comps) }

// CumWeight returns the cumulative pair weight of components [0, c] — the
// merged analogue of Table.CumWeight's per-bucket prefix sums, and the
// boundaries SamplePair descends by.
func (cl *componentList) CumWeight(c int) int64 {
	if c < 0 {
		return 0
	}
	if c >= len(cl.cum) {
		c = len(cl.cum) - 1
	}
	return cl.cum[c]
}

// SamplePair draws a uniform random pair from the union stratum H: a
// component chosen with probability weight/N_H by its cumulative weight,
// then that component's own weighted bucket sampler (the per-shard Fenwick
// descent, or the bipartite matched-bucket search). Since every stratum-H
// pair belongs to exactly one component, the draw is uniform over the union.
// A view with one component skips the pick and spends no RNG draw on it.
func (cl *componentList) SamplePair(rng *xrand.RNG) (i, j int, ok bool) {
	if cl.nh == 0 {
		return 0, 0, false
	}
	if len(cl.comps) == 1 {
		return cl.comps[0].samplePair(rng)
	}
	x := int64(rng.Uint64n(uint64(cl.nh)))
	c := sort.Search(len(cl.cum), func(k int) bool { return cl.cum[k] > x })
	return cl.comps[c].samplePair(rng)
}

// MergedStratum is the global stratum-H weight view of table t across a
// captured shard-snapshot vector. It implements the stratum interface over
// dense union ids and is immutable and safe for concurrent use, like
// everything snapshot-backed.
type MergedStratum struct {
	componentList
	gs *lsh.GroupSnapshot
	t  int
}

// NewMergedStratum combines table t of every shard snapshot into one global
// weight view. Construction walks each shard pair's buckets once to build
// the bipartite matchings — O(S² · #buckets) — so estimators build it once
// and sample many times.
func NewMergedStratum(gs *lsh.GroupSnapshot, t int) (*MergedStratum, error) {
	if gs == nil {
		return nil, fmt.Errorf("core: merged stratum needs a group snapshot")
	}
	if t < 0 || t >= gs.L() {
		return nil, fmt.Errorf("core: table %d out of range [0, %d)", t, gs.L())
	}
	ms := &MergedStratum{gs: gs, t: t}
	for a := 0; a < gs.S(); a++ {
		ms.add(intraComponent{tab: gs.Snap(a).Table(t), off: gs.Offset(a)})
		for b := a + 1; b < gs.S(); b++ {
			bp, err := lsh.NewBipartite(gs.Snap(a), gs.Snap(b), t)
			if err != nil {
				return nil, err
			}
			ms.add(crossComponent{bp: bp, offL: gs.Offset(a), offR: gs.Offset(b)})
		}
	}
	return ms, nil
}

// M returns the total number of unordered pairs C(n, 2) of the union corpus.
func (ms *MergedStratum) M() int64 {
	n := int64(ms.gs.N())
	return n * (n - 1) / 2
}

// NL returns M − N_H.
func (ms *MergedStratum) NL() int64 { return ms.M() - ms.nh }

// SameBucket reports whether dense pair (i, j) belongs to the union stratum
// H of table t — same-shard pairs test their shard's table, cross-shard
// pairs compare bucket keys across tables.
func (ms *MergedStratum) SameBucket(i, j int) bool {
	return ms.gs.SameBucketInTable(ms.t, i, j)
}

// MergedBipartiteStratum is the cross-group stratum-H weight view of
// App. B.2.2 over two captured shard-snapshot vectors: the bipartite bucket
// matching between the union sides, decomposed into the S_left·S_right
// per-shard-pair lsh.Bipartite components. Because bucket keys are
// shard-invariant, a union matched-bucket pair with b_j left members split
// across left shards and c_i right members split across right shards
// contributes Σ_a Σ_b b_j,a·c_i,b = b_j·c_i cross pairs — every stratum-H
// cross pair lives in exactly one component — so N_H sums component weights
// and SamplePair stays uniform over the union stratum. It implements the
// BipartiteStratum interface (dense ids within each group's own id space)
// and is immutable and safe for concurrent use.
type MergedBipartiteStratum struct {
	componentList
	left, right *lsh.GroupSnapshot
	t           int
}

// NewMergedBipartiteStratum combines table t of every (left shard, right
// shard) pair into one cross-group weight view. Construction walks each
// shard pair's buckets once to build the bipartite matchings —
// O(S_left·S_right·#buckets) — so callers answering repeated estimates over
// an unchanged capture build it once (see BipartiteStratumCache) and
// construct estimators over it per call. Both groups must be hashed with the
// same family and k.
func NewMergedBipartiteStratum(left, right *lsh.GroupSnapshot, t int) (*MergedBipartiteStratum, error) {
	return newMergedBipartiteStratum(left, right, t, func(a, b int) (*lsh.Bipartite, error) {
		return lsh.NewBipartite(left.Snap(a), right.Snap(b), t)
	})
}

// newMergedBipartiteStratum assembles the view from match(a, b), which
// returns the bucket matching of shard pair (a, b) — built fresh, or reused
// by a caller that checked both shards' versions. Offsets and cumulative
// weights are always reassembled from the given snapshots, since a publish
// on one shard shifts every later shard's dense offset.
func newMergedBipartiteStratum(left, right *lsh.GroupSnapshot, t int, match func(a, b int) (*lsh.Bipartite, error)) (*MergedBipartiteStratum, error) {
	if err := lsh.CompatibleCross(left, right); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if t < 0 || t >= left.L() || t >= right.L() {
		return nil, fmt.Errorf("core: table %d out of range", t)
	}
	ms := &MergedBipartiteStratum{left: left, right: right, t: t}
	for a := 0; a < left.S(); a++ {
		for b := 0; b < right.S(); b++ {
			bp, err := match(a, b)
			if err != nil {
				return nil, err
			}
			ms.add(crossComponent{bp: bp, offL: left.Offset(a), offR: right.Offset(b)})
		}
	}
	return ms, nil
}

// M returns the total number of cross pairs |U|·|V| of the union sides.
func (ms *MergedBipartiteStratum) M() int64 {
	return int64(ms.left.N()) * int64(ms.right.N())
}

// NL returns M − N_H.
func (ms *MergedBipartiteStratum) NL() int64 { return ms.M() - ms.nh }

// LeftN and RightN return the union collection sizes.
func (ms *MergedBipartiteStratum) LeftN() int  { return ms.left.N() }
func (ms *MergedBipartiteStratum) RightN() int { return ms.right.N() }

// SameBucket reports whether left dense vector u and right dense vector v
// have equal g values in table t — the cross-group membership test the
// rejection sampler calls per candidate pair.
func (ms *MergedBipartiteStratum) SameBucket(u, v int) bool {
	return ms.left.SameBucketAcrossGroups(ms.t, u, ms.right, v)
}

// Sim returns the family similarity between left dense vector u and right
// dense vector v.
func (ms *MergedBipartiteStratum) Sim(u, v int) float64 {
	return ms.left.Family().Sim(ms.left.At(u), ms.right.At(v))
}
