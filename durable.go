package lshjoin

import (
	"fmt"

	"lshjoin/internal/faultfs"
	"lshjoin/internal/lsh"
	"lshjoin/internal/lsh/persist"
)

// Typed store errors, re-exported so callers can errors.Is against them
// without importing internals.
var (
	// ErrNoStore reports an Open of a directory holding no store.
	ErrNoStore = persist.ErrNotExist
	// ErrStoreExists reports a New/NewSharded with Options.Dir naming a
	// directory that already holds a store.
	ErrStoreExists = persist.ErrExists
	// ErrCorruptStore reports on-disk state recovery must not paper over:
	// checksum mismatches away from the delta-log tail, version skew
	// between files, impossible structure. A torn log tail is NOT corrupt —
	// it is truncated silently and the last durable version served.
	ErrCorruptStore = persist.ErrCorrupt
)

// adopt folds a source's hashing identity — a store's recovered
// parameters or the shard servers' handshake — into opt under the
// adopt-or-assert rule. Hashing fields (K, Tables, Seed, Measure, Shards)
// are owned by the source: leaving them zero adopts its values, setting
// them is an assertion that must match (ErrInvalidOptions otherwise) —
// there is no way to rehash an existing store by reopening it with
// different options. Runtime-only fields (PublishEvery) pass through
// untouched. A family the public API cannot name fails with the source's
// sentinel: ErrCorruptStore for a store, ErrShardProtocol for a server.
func adopt(opt Options, src string, sentinel error, spec lsh.FamilySpec, k, tables, shards int) (Options, error) {
	var measure Measure
	switch spec.Name {
	case "simhash":
		measure = CosineSimilarity
	case "minhash":
		measure = JaccardSimilarity
	default:
		return opt, fmt.Errorf("lshjoin: %s uses unsupported hash family %q: %w", src, spec.Name, sentinel)
	}
	if opt.K != 0 && opt.K != k {
		return opt, fmt.Errorf("%w: K = %d but %s hashes with K = %d", ErrInvalidOptions, opt.K, src, k)
	}
	if opt.Tables != 0 && opt.Tables != tables {
		return opt, fmt.Errorf("%w: Tables = %d but %s hashes with %d", ErrInvalidOptions, opt.Tables, src, tables)
	}
	if opt.Seed != 0 && opt.Seed != spec.Seed {
		return opt, fmt.Errorf("%w: Seed = %d but %s hashes with %d", ErrInvalidOptions, opt.Seed, src, spec.Seed)
	}
	if opt.Measure != measure && opt.Measure != CosineSimilarity {
		return opt, fmt.Errorf("%w: Measure conflicts with the hash family %q of %s", ErrInvalidOptions, spec.Name, src)
	}
	if opt.Shards != 0 && opt.Shards != shards {
		return opt, fmt.Errorf("%w: Shards = %d but %s holds %d", ErrInvalidOptions, opt.Shards, src, shards)
	}
	opt.K, opt.Tables, opt.Seed, opt.Measure, opt.Shards = k, tables, spec.Seed, measure, shards
	return opt, nil
}

// closeAll releases stores on an error path.
func closeAll(stores ...*persist.Store) {
	for _, st := range stores {
		st.Close()
	}
}

// Open recovers the durable collection stored in dir: the last checkpoint
// is loaded, the delta log's valid prefix replayed (a torn tail is
// truncated, never served), and the resulting collection is deep-equal to
// the last durably published version — estimates, searches and SamplePair
// streams included. Hashing options are recovered from disk; opt may leave
// them zero or assert matching values (see Options.Dir), and supplies
// runtime policies like PublishEvery. Errors: ErrNoStore if dir holds no
// store, ErrCorruptStore if its state fails validation, ErrInvalidOptions
// on conflicting options.
func Open(dir string, opt Options) (*Collection, error) {
	opt.Dir = dir
	opt, err := opt.validated()
	if err != nil {
		return nil, err
	}
	index, store, err := persist.Open(faultfs.OS{}, dir)
	if err != nil {
		return nil, fmt.Errorf("lshjoin: %w", err)
	}
	opt, err = adoptStore(opt, index)
	if err != nil {
		store.Close()
		return nil, err
	}
	c, err := newCollection(opt, index, []*persist.Store{store})
	if err != nil {
		store.Close()
	}
	return c, err
}

// adoptStore folds the identity of an index recovered from a plain
// single-index store into opt.
func adoptStore(opt Options, index *lsh.Index) (Options, error) {
	spec, err := lsh.SpecOf(index.Family())
	if err != nil {
		return opt, fmt.Errorf("lshjoin: %w", err)
	}
	opt.Shards = 0 // a plain store has no shard count to assert against
	return adopt(opt, "the store", ErrCorruptStore, spec, index.K(), index.L(), 1)
}

// Close makes the collection durable at its current version — pending
// inserts are published, a checkpoint written and fsynced — and releases
// the store. It returns the store's sticky error, if any: a non-nil return
// means some earlier publish may not have reached disk and the checkpoint
// could not repair it. Close is idempotent; a nil-store (purely in-memory)
// collection closes trivially. The collection must not be used afterwards.
func (c *Collection) Close() error { return closeStores(nil, c.local) }

// OpenSharded recovers the durable sharded collection stored in dir: the
// group manifest names the shape, every shard recovers independently
// (checkpoint + delta-log replay), and the reassembled collection routes,
// estimates and samples exactly as the one that wrote the store. Options
// semantics match Open, with Shards also recoverable or assertable.
func OpenSharded(dir string, opt Options) (*ShardedCollection, error) {
	opt.Dir = dir
	opt, err := opt.validated()
	if err != nil {
		return nil, err
	}
	group, stores, meta, err := persist.OpenGroup(faultfs.OS{}, dir)
	if err != nil {
		return nil, fmt.Errorf("lshjoin: %w", err)
	}
	opt, err = adopt(opt, "the store", ErrCorruptStore, meta.Family, meta.K, meta.Ell, meta.Shards)
	if err != nil {
		closeAll(stores...)
		return nil, err
	}
	c, err := newSharded(opt, group, stores)
	if err != nil {
		closeAll(stores...)
	}
	return c, err
}

// OpenCrossJoin recovers the durable cross join stored in dir: the cross
// manifest names the shared shape, then each side's group store recovers
// independently — every shard to its last durably published version — so
// the reopened join serves estimates over a componentwise-consistent
// version-vector pair, draw-for-draw identical to the writer's own view of
// those versions. Options semantics match OpenSharded (Tables, if asserted,
// must be 1). Errors: ErrNoStore if dir holds no cross store,
// ErrCorruptStore if its state fails validation, ErrInvalidOptions on
// conflicting options.
func OpenCrossJoin(dir string, opt Options) (*CrossJoin, error) {
	opt.Dir = dir
	opt, err := opt.validated()
	if err != nil {
		return nil, err
	}
	left, right, leftStores, rightStores, meta, err := persist.OpenCross(faultfs.OS{}, dir)
	if err != nil {
		return nil, fmt.Errorf("lshjoin: %w", err)
	}
	opt, err = adopt(opt, "the store", ErrCorruptStore, meta.Family, meta.K, 1, meta.Shards)
	if err != nil {
		closeAll(append(leftStores, rightStores...)...)
		return nil, err
	}
	cj, err := newCrossJoin(opt, left, right, leftStores, rightStores)
	if err != nil {
		closeAll(append(leftStores, rightStores...)...)
	}
	return cj, err
}

// Close makes both sides durable at their current versions — every shard
// publishes and checkpoints — rewrites each side's group manifest and the
// cross manifest with the final version-vector pair, then releases the
// stores. Semantics otherwise match Collection.Close: idempotent, trivial
// for in-memory cross joins, and the first sticky store error is returned.
func (cj *CrossJoin) Close() error {
	return closeStores(func(versions [][]uint64) error {
		spec, err := lsh.SpecOf(cj.family)
		if err != nil {
			return err
		}
		for i, left := range []bool{true, false} {
			gm := persist.GroupMeta{Family: spec, K: cj.opt.K, Ell: 1, Shards: cj.left.S(), Versions: versions[i]}
			if werr := persist.WriteGroupManifest(faultfs.OS{}, persist.CrossSideDir(cj.opt.Dir, left), gm); werr != nil && err == nil {
				err = werr
			}
		}
		if err != nil {
			return err
		}
		return persist.WriteCrossManifest(faultfs.OS{}, cj.opt.Dir, persist.CrossMeta{
			Family: spec, K: cj.opt.K, Shards: cj.left.S(),
			LeftVersions: versions[0], RightVersions: versions[1],
		})
	}, cj.left, cj.right)
}

// Close makes every shard durable at its current version and rewrites the
// group manifest with the final shard version vector, then releases the
// stores. Semantics otherwise match Collection.Close: idempotent, trivial
// for in-memory collections, and the first sticky shard error is returned.
func (c *ShardedCollection) Close() error {
	return closeStores(func(versions [][]uint64) error {
		spec, err := lsh.SpecOf(c.family)
		if err != nil {
			return err
		}
		return persist.WriteGroupManifest(faultfs.OS{}, c.opt.Dir, persist.GroupMeta{
			Family: spec, K: c.opt.K, Ell: c.opt.Tables, Shards: c.local.S(), Versions: versions[0],
		})
	}, c.local)
}
