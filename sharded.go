package lshjoin

import (
	"fmt"
	"math/bits"

	"lshjoin/internal/lsh"
	"lshjoin/internal/lsh/persist"
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
	*front
	local *localSource
}

// NewSharded indexes the vectors across Options.Shards shards (default 1).
// The collection keeps references to the vectors; callers must not mutate
// them afterwards. With Options.Dir set, a durable store is created there —
// one crash-safe sub-store per shard plus a group manifest, or with one
// shard the plain store New writes — and every published shard version
// persists across restarts; reopen with OpenSharded.
func NewSharded(vectors []Vector, opt Options) (*ShardedCollection, error) {
	opt, err := corpusOptions(vectors, opt)
	if err != nil {
		return nil, err
	}
	// Ids pack (shard, local) into one int (see lsh.GroupID); with more than
	// one shard the shard bits don't fit a 32-bit int.
	if opt.Shards > 1 && bits.UintSize < 64 {
		return nil, fmt.Errorf("lshjoin: Shards > 1 requires a 64-bit platform (vector ids pack shard and local index into one int)")
	}
	group, stores, err := createGroup(vectors, opt)
	if err != nil {
		return nil, err
	}
	return newSharded(opt, group, stores), nil
}

// newSharded serves group, and its stores when durable, through the shared
// read path.
func newSharded(opt Options, group *lsh.ShardGroup, stores []*persist.Store) *ShardedCollection {
	local := newLocalSource(opt, group, stores)
	return &ShardedCollection{front: newFront(opt, group.Family(), local), local: local}
}

// Shards returns the shard count S.
func (c *ShardedCollection) Shards() int { return c.local.S() }

// N returns the total number of vectors across shards (including all
// completed Inserts).
func (c *ShardedCollection) N() int { return must(c.n()) }

// K returns the per-table hash function count.
func (c *ShardedCollection) K() int { return c.opt.K }

// Tables returns the number of LSH tables ℓ (per shard; all shards share
// the hash functions, so table t means the same g everywhere).
func (c *ShardedCollection) Tables() int { return c.opt.Tables }

// ShardOf returns the home shard encoded in a vector id returned by Insert.
func (c *ShardedCollection) ShardOf(id int) int { return shardOf(id) }

// shardOf returns the home shard encoded in a shard-encoded vector id.
func shardOf(id int) int {
	s, _ := lsh.SplitGroupID(int64(id))
	return s
}

// Vector returns the vector with the given id (as returned by Insert, or a
// dense initial id for the construction-time vectors of a single-shard
// collection).
func (c *ShardedCollection) Vector(id int) Vector { return must(c.vector(id)) }

// Version returns the summed per-shard publish version: it increases every
// time any shard makes inserts visible to new readers (S for a fresh
// collection). For the vector itself see ShardVersions.
func (c *ShardedCollection) Version() uint64 { return must(c.version()) }

// ShardVersions returns the per-shard publish versions of the latest
// captured shard-snapshot vector (1 per fresh shard).
func (c *ShardedCollection) ShardVersions() []uint64 { return must(c.shardVersions()) }

// IndexBytes estimates the total LSH index size across shards using the
// paper's §6.3 accounting.
func (c *ShardedCollection) IndexBytes() int64 { return must(c.indexBytes()) }

// PairsSharingBucket returns the merged N_H of table 0: per-shard intra
// counts plus cross-shard bipartite counts, exactly equal to the N_H a
// single index over the union corpus would maintain.
func (c *ShardedCollection) PairsSharingBucket() int64 { return must(c.pairsSharingBucket()) }

// Insert routes v to its home shard and adds it there, returning the
// vector's id (shard-encoded; stable for the collection's lifetime). Only
// the home shard's writer serializes, so inserts on different shards proceed
// fully in parallel. With Options.PublishEvery set, the home shard publishes
// once its own pending delta reaches the policy size.
func (c *ShardedCollection) Insert(v Vector) int { return must(insertOne(c.local, v)) }

// InsertBatch routes each vector to its home shard and batch-inserts the
// per-shard runs through the batched signature engine, returning per-vector
// ids aligned with vs.
func (c *ShardedCollection) InsertBatch(vs []Vector) []int { return must(routeInsert(c.local, vs)) }

// Estimator constructs the requested algorithm over this sharded collection.
// Every algorithm of the paper is available over shards through the same
// constructors a Collection uses; with one shard every merged view has one
// component and samples straight from it, so estimates are draw-for-draw
// those of an equivalent Collection.
func (c *ShardedCollection) Estimator(algo Algorithm, opts ...EstimatorOption) (Estimator, error) {
	return c.estimator(algo, opts)
}

// EstimateJoinSize estimates the join size with merged LSH-SS under the
// paper's default parameters. Each call draws fresh randomness; use
// Estimator for reproducible or repeated estimation.
func (c *ShardedCollection) EstimateJoinSize(tau float64) (float64, error) {
	return c.estimateJoinSize(tau)
}

// EstimateJoinSizeCurve estimates the selectivity curve J(τ) for a grid of
// thresholds from one shared merged-LSH-SS sampling pass.
func (c *ShardedCollection) EstimateJoinSizeCurve(taus []float64) ([]float64, error) {
	return c.estimateJoinSizeCurve(taus)
}

// ExactJoinSize computes the true join size over the union corpus with the
// inverted-index exact joiner (brute force for non-cosine measures).
func (c *ShardedCollection) ExactJoinSize(tau float64) (int64, error) { return c.exactJoinSize(tau) }

// JoinPairs materializes the exact similarity join at tau over the union
// corpus. Pair indices are shard-encoded vector ids (see Insert); with one
// shard they are plain dense ids, like Collection.JoinPairs.
func (c *ShardedCollection) JoinPairs(tau float64) ([]JoinPair, error) { return c.joinPairs(tau) }

// SearchSimilar returns ids of indexed vectors with sim(v, ·) ≥ tau among
// the LSH candidates of v, searching every shard's latest published
// snapshot. Results use shard-encoded ids in shard order; with one shard the
// output is identical to Collection.SearchSimilar.
func (c *ShardedCollection) SearchSimilar(v Vector, tau float64) []int {
	return must(c.searchSimilar(v, tau))
}
