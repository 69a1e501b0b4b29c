package lsh

import (
	"fmt"

	"lshjoin/internal/vecmath"
)

// Exported hooks for the network serving layer (internal/shardrpc and the
// public RemoteCollection). A coordinator that fetches per-shard snapshots
// over the wire needs what the sharded layer already does in-process: route
// vectors to their home shards without holding the shards, and reassemble
// fetched snapshots into the GroupSnapshot the merged estimators consume. A
// serving side starts its empty shard as the one-shard group over no
// vectors (NewShardGroupSigned).

// RouteVector returns the home shard of v in an s-shard partition under the
// same consistent key-hash routing a ShardGroup uses: jump consistent hash
// over the vector's content key. It is a pure function of (v, s), so a
// coordinator and an in-process ShardGroup with equal shard counts route
// every vector identically.
func RouteVector(v vecmath.Vector, s int) int {
	if s <= 1 {
		return 0
	}
	return jumpHash(contentKey(v), s)
}

// RouteBatch is the one routed ingest of the sharded layer, in process and
// over the wire: it splits vs into per-shard runs by home shard among s
// shards (one shard takes the batch unsplit), hands each non-empty run to
// ingest in shard order, and assigns the group ids aligned with vs from
// the first local id ingest reports per run. It stops at the first error.
func RouteBatch(vs []vecmath.Vector, s int, ingest func(shard int, run []vecmath.Vector) (first int, err error)) ([]int64, error) {
	if len(vs) == 0 {
		return nil, nil
	}
	ids := make([]int64, len(vs))
	if s == 1 {
		first, err := ingest(0, vs)
		if err != nil {
			return nil, err
		}
		for i := range ids {
			ids[i] = int64(first + i)
		}
		return ids, nil
	}
	runs := make([][]vecmath.Vector, s)
	home := make([]int, len(vs))
	for i, v := range vs {
		home[i] = RouteVector(v, s)
		runs[home[i]] = append(runs[home[i]], v)
	}
	next := make([]int, s)
	for sh, run := range runs {
		if len(run) == 0 {
			continue
		}
		first, err := ingest(sh, run)
		if err != nil {
			return nil, err
		}
		next[sh] = first
	}
	for i, sh := range home {
		ids[i] = GroupID(sh, next[sh])
		next[sh]++
	}
	return ids, nil
}

// NewGroupSnapshot assembles fetched per-shard snapshots into the group view
// estimators consume, validating that every shard hashed with the same
// family, k and ℓ (the precondition for shard-invariant bucket keys). The
// shard order must match the routing that populated the shards; element s is
// served as shard s.
func NewGroupSnapshot(snaps []*Snapshot) (*GroupSnapshot, error) {
	if len(snaps) < 1 || len(snaps) > MaxShards {
		return nil, fmt.Errorf("lsh: shard count must be in [1, %d], got %d", MaxShards, len(snaps))
	}
	for s, sn := range snaps {
		if sn == nil {
			return nil, fmt.Errorf("lsh: shard %d snapshot is nil", s)
		}
		if sn.Family() != snaps[0].Family() || sn.K() != snaps[0].K() || sn.L() != snaps[0].L() {
			return nil, fmt.Errorf("lsh: shard %d snapshot was hashed with different parameters", s)
		}
	}
	return newGroupSnapshot(snaps), nil
}

// SnapshotSummary is the cheap per-shard digest a shard server reports
// without shipping the snapshot itself: the publish version, the vector
// count, and each table's N_H (the pair count of stratum H, the quantity the
// extended LSH index maintains).
type SnapshotSummary struct {
	Version uint64
	N       int
	TableNH []int64
}

// Summary extracts the digest of this snapshot.
func (s *Snapshot) Summary() SnapshotSummary {
	nh := make([]int64, s.L())
	for t := range nh {
		nh[t] = s.Table(t).NH()
	}
	return SnapshotSummary{Version: s.Version(), N: s.N(), TableNH: nh}
}
