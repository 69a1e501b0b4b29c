package lsh

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"lshjoin/internal/vecmath"
	"lshjoin/internal/xrand"
)

// Horizontal sharding over the snapshot layer (the ROADMAP item). A
// ShardGroup partitions the key space across S independent Indexes that all
// hash with the same family, k and ℓ, so a vector's bucket keys are
// shard-invariant: the same vector lands in the same buckets whichever shard
// stores it. Routing is consistent key-hashing — jump consistent hash over a
// content key of the vector — so a vector's home shard is a pure function of
// its value and S, independent of insert interleaving, and growing S from n
// to n+1 remaps only ~1/(n+1) of the keys.
//
// Each shard is a full writer/reader Index: inserts on different shards
// serialize only on their own shard's writer lock and never contend with one
// another, and each shard publishes its own snapshot versions (per-write
// publication stays O(delta · log #buckets) through the per-shard Fenwick
// weight index). Readers capture a shard-snapshot vector — one atomic
// pointer load per shard — and serve estimates and searches over that
// immutable GroupSnapshot.
//
// Because bucket keys are shard-invariant, the estimators' stratum-H
// statistics are additive across the partition: a union bucket with m_s
// members on shard s contributes C(Σm_s, 2) = Σ_s C(m_s, 2) + Σ_{a<b}
// m_a·m_b pairs, i.e. the per-shard intra counts plus the cross-shard
// bipartite counts. internal/core's merged estimators exploit exactly this
// identity (see core/sharded.go).

// MaxShards bounds the shard count so (shard, local) ids pack into an int64.
const MaxShards = 1 << 20

// shardIDShift positions the shard number above the per-shard local id in a
// packed GroupID: locals up to 2^40 vectors per shard, shards up to 2^20.
const shardIDShift = 40

// GroupID packs a (shard, local) pair into the group-wide vector id returned
// by ShardGroup.Insert. With one shard the id equals the local id, which is
// what keeps an S=1 group bit-compatible with a plain Index.
func GroupID(shard, local int) int64 {
	return int64(shard)<<shardIDShift | int64(local)
}

// SplitGroupID inverts GroupID.
func SplitGroupID(id int64) (shard, local int) {
	return int(id >> shardIDShift), int(id & (1<<shardIDShift - 1))
}

// contentKey hashes a vector's entries into the 64-bit routing key. Equal
// vectors always share a key, so duplicates co-locate and re-inserting a
// vector routes to the same shard.
func contentKey(v vecmath.Vector) uint64 {
	h := uint64(0x5EED0FCA11ED1234)
	for _, e := range v.Entries() {
		h = xrand.Mix2(h, uint64(e.Dim)<<32|uint64(math.Float32bits(e.Weight)))
	}
	return h
}

// jumpHash is Lamping & Veach's jump consistent hash: a uniform bucket in
// [0, n) such that growing n moves only the minimal fraction of keys.
func jumpHash(key uint64, n int) int {
	var b, j int64 = -1, 0
	for j < int64(n) {
		b = j
		key = key*2862933555777941757 + 1
		j = int64(float64(b+1) * (float64(int64(1)<<31) / float64((key>>33)+1)))
	}
	return int(b)
}

// ShardGroup is a horizontally sharded LSH index: S independent Indexes over
// one logical collection, with consistent key-hash routing. All methods are
// safe for concurrent use; writers contend only within a shard.
type ShardGroup struct {
	family Family
	k, ell int
	shards []*Index
}

// NewShardGroup routes every vector of data to its home shard and builds the
// S per-shard indexes (each through the shard-parallel batched build). With
// s == 1 the single shard indexes data in place, producing an Index
// bit-identical to Build(data, family, k, ell).
func NewShardGroup(data []vecmath.Vector, family Family, k, ell, s int) (*ShardGroup, error) {
	return NewShardGroupSigned(data, family, k, ell, s, SignConfig{})
}

// NewShardGroupSigned is NewShardGroup with an explicit signing
// configuration applied to every shard (see SignConfig and BuildSigned).
// With s == 1 the single shard is exactly BuildSigned(data, family, k, ell,
// cfg) — bit-identical — or, for empty data, a writable zero-vector index
// (version 1, empty tables) that grows through ingest.
func NewShardGroupSigned(data []vecmath.Vector, family Family, k, ell, s int, cfg SignConfig) (*ShardGroup, error) {
	if err := validateParams(family, k, ell); err != nil {
		return nil, err
	}
	if s < 1 || s > MaxShards {
		return nil, fmt.Errorf("lsh: shard count must be in [1, %d], got %d", MaxShards, s)
	}
	g := &ShardGroup{family: family, k: k, ell: ell, shards: make([]*Index, s)}
	parts := make([][]vecmath.Vector, s)
	if s == 1 {
		parts[0] = data
	} else {
		for _, v := range data {
			sh := g.Route(v)
			parts[sh] = append(parts[sh], v)
		}
	}
	var err error
	for sh := range g.shards {
		if len(parts[sh]) == 0 {
			g.shards[sh] = emptyIndexSigned(family, k, ell, cfg)
			continue
		}
		if g.shards[sh], err = BuildSigned(parts[sh], family, k, ell, cfg); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// NewShardGroupFromIndexes assembles a group over already-constructed
// per-shard indexes — the reopen path of the durability layer, which
// restores each shard from its own store and needs them under one router.
// Every index must hash with the given family, k and ℓ; the shard order
// must match the routing that populated the stores.
func NewShardGroupFromIndexes(family Family, k, ell int, shards []*Index) (*ShardGroup, error) {
	if err := validateParams(family, k, ell); err != nil {
		return nil, err
	}
	if len(shards) < 1 || len(shards) > MaxShards {
		return nil, fmt.Errorf("lsh: shard count must be in [1, %d], got %d", MaxShards, len(shards))
	}
	for s, x := range shards {
		if x == nil {
			return nil, fmt.Errorf("lsh: shard %d is nil", s)
		}
		if x.Family() != family || x.K() != k || x.L() != ell {
			return nil, fmt.Errorf("lsh: shard %d was hashed with different parameters", s)
		}
	}
	return &ShardGroup{family: family, k: k, ell: ell, shards: shards}, nil
}

// emptyIndexSigned constructs a zero-vector Index (version 1, empty tables)
// for shards the initial routing left unpopulated.
func emptyIndexSigned(family Family, k, ell int, cfg SignConfig) *Index {
	narrow := isNarrow(k, family.Bits())
	snap := &Snapshot{
		version: 1,
		family:  family,
		k:       k,
		ell:     ell,
		narrow:  narrow,
		tables:  make([]*Table, ell),
		pool:    &sync.Pool{},
	}
	for t := 0; t < ell; t++ {
		if narrow {
			snap.tables[t] = newTable64(nil, k, t*k, family.Bits())
		} else {
			snap.tables[t] = newTableStr(nil, k, t*k, family.Bits())
		}
	}
	x := &Index{sign: cfg}
	if narrow {
		x.pend64 = make([][]uint64, ell)
	} else {
		x.pendStr = make([][]string, ell)
	}
	x.cur.Store(snap)
	return x
}

// S returns the shard count.
func (g *ShardGroup) S() int { return len(g.shards) }

// K returns the per-table hash function count.
func (g *ShardGroup) K() int { return g.k }

// L returns the number of tables ℓ.
func (g *ShardGroup) L() int { return g.ell }

// Family returns the shared hash family.
func (g *ShardGroup) Family() Family { return g.family }

// Shard returns shard s's Index, for per-shard inspection.
func (g *ShardGroup) Shard(s int) *Index { return g.shards[s] }

// Route returns the home shard of v under consistent key-hash routing.
func (g *ShardGroup) Route(v vecmath.Vector) int {
	return RouteVector(v, len(g.shards))
}

// Insert routes v to its home shard and appends it there, returning the
// packed group-wide id (see GroupID). Only the home shard's writer lock is
// taken, so inserts on different shards proceed fully in parallel.
func (g *ShardGroup) Insert(v vecmath.Vector) int64 {
	s := g.Route(v)
	return GroupID(s, g.shards[s].Insert(v))
}

// InsertBatch routes each vector to its home shard, batch-inserts the
// per-shard runs (each through the batched signature engine), and returns the
// per-vector group ids aligned with vs.
func (g *ShardGroup) InsertBatch(vs []vecmath.Vector) []int64 {
	ids, _ := RouteBatch(vs, len(g.shards), func(s int, run []vecmath.Vector) (int, error) {
		return g.shards[s].InsertBatch(run), nil // in-process ingest cannot fail
	})
	return ids
}

// Pending returns the total number of inserted vectors not yet published by
// any shard.
func (g *ShardGroup) Pending() int {
	n := 0
	for _, x := range g.shards {
		n += x.Pending()
	}
	return n
}

// Capture publishes any pending inserts shard by shard and returns the
// resulting shard-snapshot vector. Each element is that shard's latest
// immutable version; shards that raced concurrent writers may differ by a
// version, but every element is internally consistent and the vector as a
// whole is stable once returned.
func (g *ShardGroup) Capture() *GroupSnapshot {
	snaps := make([]*Snapshot, len(g.shards))
	for s, x := range g.shards {
		snaps[s] = x.Snapshot()
	}
	return newGroupSnapshot(snaps)
}

// Current returns the shard-snapshot vector of the latest published versions
// without publishing pending inserts. One atomic load per shard; never
// blocks.
func (g *ShardGroup) Current() *GroupSnapshot {
	snaps := make([]*Snapshot, len(g.shards))
	for s, x := range g.shards {
		snaps[s] = x.Current()
	}
	return newGroupSnapshot(snaps)
}

// GroupSnapshot is an atomically captured shard-snapshot vector: one
// immutable Snapshot per shard, plus the dense-id view estimators sample
// over. Dense ids enumerate the union corpus shard by shard — vector i lives
// at Locate(i) — and every method is safe for unsynchronized concurrent use.
type GroupSnapshot struct {
	snaps   []*Snapshot
	offsets []int // offsets[s] = dense id of shard s's first vector; len S+1

	dataOnce sync.Once
	data     []vecmath.Vector
}

// SingleSnapshot wraps one snapshot as a single-shard GroupSnapshot, so
// code written against the shard-vector view — every estimator constructor
// in internal/core — serves an unsharded index without a separate code path.
func SingleSnapshot(s *Snapshot) *GroupSnapshot {
	return newGroupSnapshot([]*Snapshot{s})
}

func newGroupSnapshot(snaps []*Snapshot) *GroupSnapshot {
	g := &GroupSnapshot{snaps: snaps, offsets: make([]int, len(snaps)+1)}
	for s, sn := range snaps {
		g.offsets[s+1] = g.offsets[s] + sn.N()
	}
	return g
}

// S returns the shard count.
func (g *GroupSnapshot) S() int { return len(g.snaps) }

// Snap returns shard s's snapshot.
func (g *GroupSnapshot) Snap(s int) *Snapshot { return g.snaps[s] }

// N returns the total vector count across shards.
func (g *GroupSnapshot) N() int { return g.offsets[len(g.snaps)] }

// K returns the per-table hash function count.
func (g *GroupSnapshot) K() int { return g.snaps[0].K() }

// L returns the number of tables ℓ.
func (g *GroupSnapshot) L() int { return g.snaps[0].L() }

// Family returns the shared hash family.
func (g *GroupSnapshot) Family() Family { return g.snaps[0].Family() }

// Versions returns the per-shard publish versions of the captured vector.
func (g *GroupSnapshot) Versions() []uint64 {
	out := make([]uint64, len(g.snaps))
	for s, sn := range g.snaps {
		out[s] = sn.Version()
	}
	return out
}

// Offset returns the dense id of shard s's first vector.
func (g *GroupSnapshot) Offset(s int) int { return g.offsets[s] }

// Locate maps a dense id to its (shard, local) coordinates.
func (g *GroupSnapshot) Locate(i int) (shard, local int) {
	// offsets is short (S+1) and ascending; binary search keeps Locate
	// O(log S) even for wide groups.
	s := sort.Search(len(g.snaps), func(s int) bool { return g.offsets[s+1] > i })
	return s, i - g.offsets[s]
}

// Dense maps (shard, local) coordinates to the dense id.
func (g *GroupSnapshot) Dense(shard, local int) int { return g.offsets[shard] + local }

// At returns the vector at dense id i.
func (g *GroupSnapshot) At(i int) vecmath.Vector {
	s, l := g.Locate(i)
	return g.snaps[s].Data()[l]
}

// Data returns the union corpus in dense-id order. The concatenation is
// materialized once per GroupSnapshot (single-shard groups return the
// underlying snapshot's slice directly); callers must not modify it.
func (g *GroupSnapshot) Data() []vecmath.Vector {
	g.dataOnce.Do(func() {
		if len(g.snaps) == 1 {
			g.data = g.snaps[0].Data()
			return
		}
		out := make([]vecmath.Vector, 0, g.N())
		for _, sn := range g.snaps {
			out = append(out, sn.Data()...)
		}
		g.data = out
	})
	return g.data
}

// SameBucketInTable reports whether dense vectors i and j share table t's
// bucket in the logical union index. Same-shard pairs compare their stored
// keys directly; cross-shard pairs compare keys across tables — both
// allocation-free in narrow mode.
func (g *GroupSnapshot) SameBucketInTable(t, i, j int) bool {
	sa, la := g.Locate(i)
	sb, lb := g.Locate(j)
	if sa == sb {
		return g.snaps[sa].Table(t).SameBucket(la, lb)
	}
	return g.snaps[sa].Table(t).SameBucketAcross(la, g.snaps[sb].Table(t), lb)
}

// SameAnyBucket reports whether dense vectors i and j share a bucket in at
// least one of the ℓ tables of the logical union index.
func (g *GroupSnapshot) SameAnyBucket(i, j int) bool {
	sa, la := g.Locate(i)
	sb, lb := g.Locate(j)
	if sa == sb {
		return g.snaps[sa].SameAnyBucket(la, lb)
	}
	for t := 0; t < g.L(); t++ {
		if g.snaps[sa].Table(t).SameBucketAcross(la, g.snaps[sb].Table(t), lb) {
			return true
		}
	}
	return false
}

// BucketMultiplicity returns the number of tables in which dense vectors i
// and j share a bucket (0..ℓ) in the logical union index.
func (g *GroupSnapshot) BucketMultiplicity(i, j int) int {
	sa, la := g.Locate(i)
	sb, lb := g.Locate(j)
	if sa == sb {
		return g.snaps[sa].BucketMultiplicity(la, lb)
	}
	m := 0
	for t := 0; t < g.L(); t++ {
		if g.snaps[sa].Table(t).SameBucketAcross(la, g.snaps[sb].Table(t), lb) {
			m++
		}
	}
	return m
}

// CompatibleCross validates that two captured groups were hashed with
// identical LSH functions, so bucket keys are comparable across them — the
// precondition for the bipartite bucket-match stratum of App. B.2.2. It is
// the group-level analogue of NewBipartite's per-snapshot checks: one error
// up front instead of S_left·S_right identical ones per shard pair.
func CompatibleCross(left, right *GroupSnapshot) error {
	if left == nil || right == nil {
		return fmt.Errorf("lsh: cross-group matching needs two group snapshots")
	}
	if left.Family() != right.Family() {
		return fmt.Errorf("lsh: cross-group matching requires identical families on both sides")
	}
	if left.K() != right.K() {
		return fmt.Errorf("lsh: cross-group k mismatch: %d vs %d", left.K(), right.K())
	}
	return nil
}

// SameBucketAcrossGroups reports whether dense vector i of this group and
// dense vector j of group h hash to the same bucket key in table t — the
// cross-group membership test of the bipartite stratum H. Both groups must
// be hashed with the same family and k (see CompatibleCross); narrow mode
// compares machine words without allocating.
func (g *GroupSnapshot) SameBucketAcrossGroups(t, i int, h *GroupSnapshot, j int) bool {
	sa, la := g.Locate(i)
	sb, lb := h.Locate(j)
	return g.snaps[sa].Table(t).SameBucketAcross(la, h.snaps[sb].Table(t), lb)
}

// SizeBytes sums the index size estimate across shards.
func (g *GroupSnapshot) SizeBytes() int64 {
	var sz int64
	for _, sn := range g.snaps {
		sz += sn.SizeBytes()
	}
	return sz
}
