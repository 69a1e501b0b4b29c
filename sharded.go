package lshjoin

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"lshjoin/internal/core"
	"lshjoin/internal/exactjoin"
	"lshjoin/internal/faultfs"
	"lshjoin/internal/lsh"
	"lshjoin/internal/lsh/persist"
	"lshjoin/internal/xrand"
)

// ShardedCollection partitions the key space of an indexed vector collection
// across Options.Shards independent LSH index shards. Routing is consistent
// key-hashing over the vector's content, so a vector's home shard is a pure
// function of its value; inserts on different shards serialize only on their
// own shard's writer lock, and each shard publishes its own snapshot
// versions. Reads capture a shard-snapshot vector — one atomic pointer load
// per shard — and estimators merge the per-shard stratum statistics (N_H and
// cumulative bucket weights are additive across the partition, with
// cross-shard pairs handled by bipartite bucket matchings), so every
// Algorithm of the paper runs over shards.
//
// With Shards == 1 a ShardedCollection is draw-for-draw identical to a
// Collection built from the same vectors and options: same index, same
// estimator streams, same results. All methods are safe for unsynchronized
// concurrent use.
type ShardedCollection struct {
	opt    Options
	family lsh.Family
	sim    core.SimFunc
	group  *lsh.ShardGroup

	// Durable backing (nil for in-memory collections), one store per shard;
	// closed flips once.
	stores []*persist.Store
	closed atomic.Bool

	seedCtr atomic.Uint64

	// The exact joiner is rebuilt lazily whenever any shard's version moved;
	// the cache is keyed on the full per-shard version vector (sums alias:
	// concurrent captures (4,2) and (3,3) cover different corpora).
	joinerMu   sync.Mutex
	joiner     *exactjoin.Joiner
	joinerVers []uint64
}

// NewSharded indexes the vectors across Options.Shards shards (default 1).
// The collection keeps references to the vectors; callers must not mutate
// them afterwards. With Options.Dir set, a durable group store is created
// there — one crash-safe sub-store per shard plus a group manifest — and
// every published shard version persists across restarts; reopen with
// OpenSharded.
func NewSharded(vectors []Vector, opt Options) (*ShardedCollection, error) {
	opt, err := opt.normalized()
	if err != nil {
		return nil, err
	}
	if len(vectors) < 2 {
		return nil, fmt.Errorf("lshjoin: need at least 2 vectors, got %d", len(vectors))
	}
	// Ids pack (shard, local) into one int (see lsh.GroupID); with more than
	// one shard the shard bits don't fit a 32-bit int.
	if opt.Shards > 1 && bits.UintSize < 64 {
		return nil, fmt.Errorf("lshjoin: Shards > 1 requires a 64-bit platform (vector ids pack shard and local index into one int)")
	}
	family, sim, err := familyFor(opt)
	if err != nil {
		return nil, err
	}
	group, err := lsh.NewShardGroupSigned(vectors, family, opt.K, opt.Tables, opt.Shards, opt.signConfig())
	if err != nil {
		return nil, fmt.Errorf("lshjoin: %w", err)
	}
	c := &ShardedCollection{
		opt:    opt,
		family: family,
		sim:    sim,
		group:  group,
	}
	if opt.Dir != "" {
		if c.stores, err = persist.CreateGroup(faultfs.OS{}, opt.Dir, group); err != nil {
			return nil, fmt.Errorf("lshjoin: %w", err)
		}
		applyStorePolicy(opt, c.stores...)
	}
	return c, nil
}

// capture publishes pending inserts shard by shard and returns the
// shard-snapshot vector.
func (c *ShardedCollection) capture() *lsh.GroupSnapshot { return c.group.Capture() }

// Shards returns the shard count S.
func (c *ShardedCollection) Shards() int { return c.group.S() }

// N returns the total number of vectors across shards (including all
// completed Inserts).
func (c *ShardedCollection) N() int { return c.capture().N() }

// K returns the per-table hash function count.
func (c *ShardedCollection) K() int { return c.opt.K }

// Tables returns the number of LSH tables ℓ (per shard; all shards share
// the hash functions, so table t means the same g everywhere).
func (c *ShardedCollection) Tables() int { return c.opt.Tables }

// ShardOf returns the home shard encoded in a vector id returned by Insert.
func (c *ShardedCollection) ShardOf(id int) int {
	s, _ := lsh.SplitGroupID(int64(id))
	return s
}

// Vector returns the vector with the given id (as returned by Insert, or a
// dense initial id for the construction-time vectors of a single-shard
// collection).
func (c *ShardedCollection) Vector(id int) Vector {
	s, local := lsh.SplitGroupID(int64(id))
	return c.capture().Snap(s).Data()[local]
}

// Version returns the summed per-shard publish version: it increases every
// time any shard makes inserts visible to new readers (S for a fresh
// collection). For the vector itself see ShardVersions.
func (c *ShardedCollection) Version() uint64 {
	var v uint64
	for _, sv := range c.capture().Versions() {
		v += sv
	}
	//vsjlint:ignore versiondominance monotone change counter per its doc; dominance callers use ShardVersions
	return v
}

// ShardVersions returns the per-shard publish versions of the latest
// captured shard-snapshot vector (1 per fresh shard).
func (c *ShardedCollection) ShardVersions() []uint64 { return c.capture().Versions() }

// IndexBytes estimates the total LSH index size across shards using the
// paper's §6.3 accounting.
func (c *ShardedCollection) IndexBytes() int64 { return c.capture().SizeBytes() }

// PairsSharingBucket returns the merged N_H of table 0: per-shard intra
// counts plus cross-shard bipartite counts, exactly equal to the N_H a
// single index over the union corpus would maintain.
func (c *ShardedCollection) PairsSharingBucket() int64 {
	ms, err := core.NewMergedStratum(c.capture(), 0)
	if err != nil {
		return 0
	}
	return ms.NH()
}

// Insert routes v to its home shard and adds it there, returning the
// vector's id (shard-encoded; stable for the collection's lifetime). Only
// the home shard's writer serializes, so inserts on different shards proceed
// fully in parallel. With Options.PublishEvery set, the home shard publishes
// once its own pending delta reaches the policy size.
func (c *ShardedCollection) Insert(v Vector) int {
	id := c.group.Insert(v)
	c.maybePublish(c.ShardOf(int(id)))
	return int(id)
}

// InsertBatch routes each vector to its home shard and batch-inserts the
// per-shard runs through the batched signature engine, returning per-vector
// ids aligned with vs.
func (c *ShardedCollection) InsertBatch(vs []Vector) []int {
	ids64 := c.group.InsertBatch(vs)
	ids := make([]int, len(ids64))
	seen := make(map[int]struct{})
	for i, id := range ids64 {
		ids[i] = int(id)
		s, _ := lsh.SplitGroupID(id)
		seen[s] = struct{}{}
	}
	for s := range seen {
		c.maybePublish(s)
	}
	return ids
}

// maybePublish applies the size-based publication policy to one shard.
func (c *ShardedCollection) maybePublish(s int) {
	if p := c.opt.PublishEvery; p > 0 && c.group.Shard(s).Pending() >= p {
		c.group.Shard(s).Snapshot()
	}
}

// EstimateJoinSize estimates the join size with merged LSH-SS under the
// paper's default parameters. Each call draws fresh randomness; use
// Estimator for reproducible or repeated estimation.
func (c *ShardedCollection) EstimateJoinSize(tau float64) (float64, error) {
	est, err := c.Estimator(AlgoLSHSS)
	if err != nil {
		return 0, err
	}
	return est.Estimate(tau)
}

// EstimateJoinSizeCurve estimates the selectivity curve J(τ) for a grid of
// thresholds from one shared merged-LSH-SS sampling pass.
func (c *ShardedCollection) EstimateJoinSizeCurve(taus []float64) ([]float64, error) {
	inner, err := core.NewMergedLSHSS(c.capture(), c.sim)
	if err != nil {
		return nil, err
	}
	return inner.EstimateCurve(taus, xrand.New(c.nextSeed()))
}

// exactJoiner returns the inverted-index joiner over the union corpus at the
// current version vector, rebuilding only when some shard published. The
// joiner is reused only on an exact version-vector match, so the dense ids
// it emits always translate through the returned capture's shard offsets.
func (c *ShardedCollection) exactJoiner() (*exactjoin.Joiner, *lsh.GroupSnapshot) {
	gs := c.capture()
	vers := gs.Versions()
	c.joinerMu.Lock()
	defer c.joinerMu.Unlock()
	if c.joiner != nil && slices.Equal(c.joinerVers, vers) {
		return c.joiner, gs
	}
	j := exactjoin.NewJoiner(gs.Data())
	// Only move the cache forward: a reader that raced publication gets a
	// correct one-off joiner without evicting a newer cached one. "Forward"
	// must be judged on the full version vector — summed versions alias
	// (concurrent captures (4,2) and (3,3) cover different corpora but sum
	// equally), so a sum comparison could adopt a vector that does not
	// dominate the cached one and later serve a joiner for the wrong corpus
	// on an exact vector match. Componentwise dominance cannot: per-shard
	// versions are monotone, so a dominating vector is genuinely newer.
	if c.joiner == nil || versionsAdvance(vers, c.joinerVers) {
		c.joiner, c.joinerVers = j, vers
	}
	return j, gs
}

// versionsGE is the componentwise comparison under version-vector caches
// (the exact joiner above; the cross join's stratum cache uses the same
// rule via core.BipartiteStratumCache): ok reports next ≥ prev in every
// component with matching shapes, newer whether some component strictly
// advanced.
func versionsGE(next, prev []uint64) (ok, newer bool) {
	if len(next) != len(prev) {
		return false, false
	}
	for s := range next {
		if next[s] < prev[s] {
			return false, false
		}
		if next[s] > prev[s] {
			newer = true
		}
	}
	return true, newer
}

// versionsAdvance reports whether version vector next is strictly newer than
// prev: componentwise ≥ with at least one component >. Incomparable vectors
// (concurrent captures that each saw a different shard publish first) never
// advance the cache; both readers still get correct one-off joiners.
func versionsAdvance(next, prev []uint64) bool {
	ok, newer := versionsGE(next, prev)
	return ok && newer
}

// ExactJoinSize computes the true join size over the union corpus with the
// inverted-index exact joiner (brute force for non-cosine measures).
func (c *ShardedCollection) ExactJoinSize(tau float64) (int64, error) {
	if c.opt.Measure != CosineSimilarity {
		return bruteCount(c.capture().Data(), c.sim, tau)
	}
	j, _ := c.exactJoiner()
	return j.CountAt(tau)
}

// JoinPairs materializes the exact similarity join at tau over the union
// corpus. Pair indices are shard-encoded vector ids (see Insert); with one
// shard they are plain dense ids, like Collection.JoinPairs.
func (c *ShardedCollection) JoinPairs(tau float64) ([]JoinPair, error) {
	if c.opt.Measure != CosineSimilarity {
		gs := c.capture()
		var out []JoinPair
		err := bruteJoin(gs.Data(), c.sim, tau, func(i, j int, s float64) {
			out = append(out, JoinPair{U: c.denseToID(gs, i), V: c.denseToID(gs, j), Sim: s})
		})
		return out, err
	}
	j, gs := c.exactJoiner()
	raw, err := j.Pairs(tau)
	if err != nil {
		return nil, err
	}
	out := make([]JoinPair, len(raw))
	for i, p := range raw {
		out[i] = JoinPair{U: c.denseToID(gs, int(p.U)), V: c.denseToID(gs, int(p.V)), Sim: p.Sim}
	}
	return out, nil
}

// denseToID converts a dense union index to the stable shard-encoded id.
func (c *ShardedCollection) denseToID(gs *lsh.GroupSnapshot, dense int) int {
	s, local := gs.Locate(dense)
	return int(lsh.GroupID(s, local))
}

// SearchSimilar returns ids of indexed vectors with sim(v, ·) ≥ tau among
// the LSH candidates of v, searching every shard's latest published
// snapshot. Results use shard-encoded ids in shard order; with one shard the
// output is identical to Collection.SearchSimilar.
func (c *ShardedCollection) SearchSimilar(v Vector, tau float64) []int {
	gs := c.capture()
	var out []int
	for s := 0; s < gs.S(); s++ {
		for _, local := range gs.Snap(s).Search(v, tau) {
			out = append(out, int(lsh.GroupID(s, int(local))))
		}
	}
	return out
}

// nextSeed derives a fresh deterministic seed for estimator construction,
// with the same stream as Collection.nextSeed so a single-shard collection
// reproduces Collection's estimates.
func (c *ShardedCollection) nextSeed() uint64 {
	return xrand.Mix2(c.opt.Seed^0xE57AB1E, c.seedCtr.Add(1))
}
