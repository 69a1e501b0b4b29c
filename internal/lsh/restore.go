package lsh

import (
	"fmt"
	"sync"

	"lshjoin/internal/vecmath"
)

// Index restoration for the durability layer (internal/lsh/persist). A
// persisted snapshot carries only the bucket sequences — per table, each
// bucket's canonical key and member ids in the deterministic first-appearance
// order — because everything else the Table keeps is derivable: per-vector
// keys from bucket membership, base lookup maps from the key sequence, and
// the Fenwick weight tree from the bucket sizes. Rebuilding the tree with
// newFenwick is draw-for-draw sampling-equivalent to the original: find's
// descent depends only on bucket order and sizes, and both the incremental
// grow path and the bottom-up build produce the same minimal power-of-two
// span, so a reopened table consumes the RNG stream identically.

// RestoredBucket is one decoded bucket: the canonical string key (8 bytes in
// narrow mode, 8·k bytes wide) and the ascending member ids.
type RestoredBucket struct {
	Key string
	IDs []int32
}

// RestoreIndex rebuilds a writable Index from persisted snapshot state. It
// validates everything a corrupted or adversarial file could get wrong —
// key widths, bucket order, id range, and that each table's buckets
// partition [0, len(data)) exactly — returning an error instead of ever
// panicking, so the decoder can be fuzzed end to end.
func RestoreIndex(family Family, k, ell int, version uint64, data []vecmath.Vector, tables [][]RestoredBucket) (*Index, error) {
	if err := validateParams(family, k, ell); err != nil {
		return nil, err
	}
	if version < 1 {
		return nil, fmt.Errorf("lsh: restore: version %d < 1", version)
	}
	if len(tables) != ell {
		return nil, fmt.Errorf("lsh: restore: %d table sequences for ℓ=%d", len(tables), ell)
	}
	narrow := isNarrow(k, family.Bits())
	snap := &Snapshot{
		version: version,
		family:  family,
		k:       k,
		ell:     ell,
		narrow:  narrow,
		data:    data[:len(data):len(data)],
		tables:  make([]*Table, ell),
		pool:    &sync.Pool{},
	}
	for t := 0; t < ell; t++ {
		tab, err := restoreTable(tables[t], k, t*k, family.Bits(), narrow, len(data))
		if err != nil {
			return nil, fmt.Errorf("lsh: restore table %d: %w", t, err)
		}
		snap.tables[t] = tab
	}
	x := &Index{}
	if narrow {
		x.pend64 = make([][]uint64, ell)
	} else {
		x.pendStr = make([][]string, ell)
	}
	x.cur.Store(snap)
	return x, nil
}

// restoreTable rebuilds one table from its bucket sequence, checking that
// the sequence is in canonical form (first-appearance order, i.e. ascending
// first member id; distinct keys of the right width) and that the member
// ids strictly ascend within each bucket and cover [0, n) exactly once.
func restoreTable(seq []RestoredBucket, k, fnBase, bits int, narrow bool, n int) (*Table, error) {
	t := &Table{k: k, fnBase: fnBase, n: n, bits: bits, narrow: narrow}
	// First pass: parse and size. Keys land in one bucket slab, and each
	// base map shard is allocated at its final size, so the second pass
	// neither allocates per bucket nor rehashes.
	slab := make([]bucket, len(seq))
	var perShard [tableShards]int
	for gi, rb := range seq {
		if narrow {
			w, ok := parseKey64(rb.Key)
			if !ok {
				return nil, fmt.Errorf("bucket %d key has %d bytes (want 8)", gi, len(rb.Key))
			}
			slab[gi].key64 = w
			perShard[shard64(w)]++
		} else {
			if len(rb.Key) != 8*k {
				return nil, fmt.Errorf("bucket %d key has %d bytes (want %d)", gi, len(rb.Key), 8*k)
			}
			slab[gi].keyStr = rb.Key
			perShard[shardStr(rb.Key)]++
		}
	}
	if narrow {
		t.keys64 = make([]uint64, n)
		t.base64 = make([]map[uint64]int32, tableShards)
		for s, c := range perShard {
			if c > 0 {
				t.base64[s] = make(map[uint64]int32, c)
			}
		}
	} else {
		t.keysStr = make([]string, n)
		t.baseStr = make([]map[string]int32, tableShards)
		for s, c := range perShard {
			if c > 0 {
				t.baseStr[s] = make(map[string]int32, c)
			}
		}
	}
	order := make([]*bucket, 0, len(seq))
	assigned := 0
	seen := make([]bool, n)
	lastFirst := int32(-1)
	for gi, rb := range seq {
		if len(rb.IDs) == 0 {
			return nil, fmt.Errorf("bucket %d is empty", gi)
		}
		prev := int32(-1)
		for _, id := range rb.IDs {
			if id < 0 || int(id) >= n {
				return nil, fmt.Errorf("bucket %d id %d outside [0, %d)", gi, id, n)
			}
			if id <= prev {
				return nil, fmt.Errorf("bucket %d ids not ascending at %d", gi, id)
			}
			if seen[id] {
				return nil, fmt.Errorf("id %d in more than one bucket", id)
			}
			seen[id] = true
			prev = id
		}
		if rb.IDs[0] <= lastFirst {
			return nil, fmt.Errorf("bucket %d out of first-appearance order", gi)
		}
		lastFirst = rb.IDs[0]
		assigned += len(rb.IDs)
		// Clamp capacity so a later merge's copy-on-write append can never
		// spill into spare capacity of the decoder's slice.
		b := &slab[gi]
		b.ids = rb.IDs[:len(rb.IDs):len(rb.IDs)]
		// A key already present leaves the map's size unchanged.
		var dup bool
		if narrow {
			m := t.base64[shard64(b.key64)]
			size := len(m)
			m[b.key64] = int32(gi)
			dup = len(m) == size
		} else {
			m := t.baseStr[shardStr(b.keyStr)]
			size := len(m)
			m[b.keyStr] = int32(gi)
			dup = len(m) == size
		}
		if dup {
			return nil, fmt.Errorf("duplicate bucket key at index %d", gi)
		}
		for _, id := range rb.IDs {
			if narrow {
				t.keys64[id] = b.key64
			} else {
				t.keysStr[id] = b.keyStr
			}
		}
		order = append(order, b)
	}
	if assigned != n {
		return nil, fmt.Errorf("buckets cover %d of %d ids", assigned, n)
	}
	t.freezeOrder(order)
	return t, nil
}
