package persist

import (
	"fmt"
	"path/filepath"

	"lshjoin/internal/faultfs"
	"lshjoin/internal/lsh"
)

// A cross-join store is two independent self-join stores under one CROSS
// manifest:
//
//	dir/CROSS        the cross manifest (family, k, shards per side)
//	dir/left/...     the left side's store (see CreateGroup)
//	dir/right/...    the right side's store
//
// Each side recovers exactly like a sharded store — shard by shard to its
// last durably published version — so the recovered state is a
// componentwise-consistent version-vector pair: every per-shard snapshot on
// either side is one the writer published, and the bipartite estimators are
// defined over any such pair. The CROSS manifest is written last at
// creation, as the commit point: side stores without it mean the manifest
// was lost (ErrCorrupt), a missing directory means no store.

const (
	crossLeftDir  = "left"
	crossRightDir = "right"
)

// CrossSideDir returns the store directory of one side of a cross store
// rooted at dir (left reports the left side).
func CrossSideDir(dir string, left bool) string {
	if left {
		return filepath.Join(dir, crossLeftDir)
	}
	return filepath.Join(dir, crossRightDir)
}

// CreateCross initializes a two-sided store for a cross join: one store
// per side (see CreateGroup), then the CROSS manifest as the commit point.
// Both sides must share family, k and shard count (cross estimators require
// it). It must complete before either group is shared with writers.
func CreateCross(fsys faultfs.FS, dir string, left, right *lsh.ShardGroup) (leftStores, rightStores []*Store, err error) {
	if err := vacant(fsys, dir); err != nil {
		return nil, nil, err
	}
	spec, err := lsh.SpecOf(left.Family())
	if err != nil {
		return nil, nil, fmt.Errorf("persist: %w", err)
	}
	rspec, err := lsh.SpecOf(right.Family())
	if err != nil {
		return nil, nil, fmt.Errorf("persist: %w", err)
	}
	if spec != rspec || left.K() != right.K() || left.L() != right.L() || left.S() != right.S() {
		return nil, nil, fmt.Errorf("persist: cross sides disagree on family or shape")
	}
	if leftStores, err = CreateGroup(fsys, CrossSideDir(dir, true), left); err != nil {
		return nil, nil, fmt.Errorf("left side: %w", err)
	}
	if rightStores, err = CreateGroup(fsys, CrossSideDir(dir, false), right); err != nil {
		closeAll(leftStores...)
		return nil, nil, fmt.Errorf("right side: %w", err)
	}
	meta := CrossMeta{Family: spec, K: left.K(), Shards: left.S()}
	if err := (&Store{fs: fsys, dir: dir}).writeFileSync(crossName, encodeCrossManifest(meta)); err != nil {
		closeAll(append(leftStores, rightStores...)...)
		return nil, nil, err
	}
	return leftStores, rightStores, nil
}

// OpenCross recovers a two-sided store: the CROSS manifest names the shared
// shape, then each side recovers independently through OpenGroup, shard by
// shard, to its last durably published version. A directory holding a
// self-join store reports ErrNotExist.
func OpenCross(fsys faultfs.FS, dir string) (left, right *lsh.ShardGroup, leftStores, rightStores []*Store, meta CrossMeta, err error) {
	fail := func(err error) (*lsh.ShardGroup, *lsh.ShardGroup, []*Store, []*Store, CrossMeta, error) {
		closeAll(append(leftStores, rightStores...)...)
		return nil, nil, nil, nil, meta, err
	}
	l, mdata, err := probe(fsys, dir)
	if err != nil {
		return fail(err)
	}
	if l != crossLayout {
		return fail(notExist(dir, l))
	}
	if meta, err = decodeCrossManifest(mdata); err != nil {
		return fail(err)
	}
	var lmeta, rmeta GroupMeta
	if left, leftStores, lmeta, err = OpenGroup(fsys, CrossSideDir(dir, true)); err != nil {
		return fail(fmt.Errorf("left side: %w", err))
	}
	if right, rightStores, rmeta, err = OpenGroup(fsys, CrossSideDir(dir, false)); err != nil {
		return fail(fmt.Errorf("right side: %w", err))
	}
	for _, side := range []GroupMeta{lmeta, rmeta} {
		if side.Family != meta.Family || side.K != meta.K || side.Shards != meta.Shards || side.Ell != 1 {
			return fail(corrupt("persist: cross manifest and side store disagree on family or shape"))
		}
	}
	return left, right, leftStores, rightStores, meta, nil
}
