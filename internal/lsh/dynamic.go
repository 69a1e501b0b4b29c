package lsh

import "lshjoin/internal/vecmath"

// Dynamic maintenance: the paper pitches the estimator as "minimal addition
// to the existing LSH index", and existing LSH indexes grow while they serve
// reads. Insert and InsertBatch append hashed vectors to a pending delta;
// Snapshot merges the delta into a fresh immutable version — keeping bucket
// counts and N_H exact — and publishes it atomically. Readers (queries,
// samplers, estimators) are never invalidated: whatever Snapshot they hold
// keeps answering over its own version, and new readers pick up the merged
// version lock-free.
//
// A merge is copy-on-write and costs O(d · log #buckets) for a d-key delta:
// the new version shares the base lookup maps, the key-array backing and —
// through the persistent Fenwick weight index (fenwick.go) — every untouched
// bucket and weight subtree with its predecessor. Only the buckets the delta
// touches get fresh headers, and each lands in the weight tree with one
// O(log #buckets) path copy; there is no bucket-order copy and no prefix-sum
// rebuild, which is what makes per-insert publication affordable on large
// tables. New bucket keys land in the overlay lookup maps, sharded like the
// base maps, so a merge copies only the overlay shards its new keys hash to
// — about d/tableShards of the overlay — never the whole overlay. Appends
// to shared backing arrays are safe because exactly one writer extends them
// (serialized by Index.mu) and readers of older versions never index past
// their own length.

// merge64 returns a new narrow-mode table extending t with the pending
// bucket keys, leaving t untouched for its readers.
func (t *Table) merge64(keys []uint64) *Table {
	nt := &Table{
		k: t.k, fnBase: t.fnBase, n: t.n + len(keys), bits: t.bits, narrow: true,
		keys64: append(t.keys64, keys...),
		base64: t.base64,
		nbase:  t.nbase,
		ovl64:  t.ovl64,
		novl:   t.novl,
		w:      t.w, // O(1) copy; set/push below path-copy away from t's root
	}
	// touched maps bucket index → this merge's private header, so a bucket
	// hit several times in one delta is copied (and re-published) once;
	// appended collects brand-new buckets at indices size0, size0+1, ...
	size0 := t.w.size
	touched := make(map[int32]*bucket, len(keys))
	var appended []*bucket
	var owned uint64 // bit s set: nt.ovl64[s] is this merge's private copy
	for i, key := range keys {
		id := int32(t.n + i)
		bi, ok := nt.bucketIndex64(key)
		if !ok {
			s := shard64(key)
			nt.ovl64 = ownOverlay(nt.ovl64, t.ovl64, &owned, s)
			bi = int32(size0 + len(appended))
			nt.ovl64[s][key] = bi
			nt.novl++
			appended = append(appended, &bucket{key64: key, ids: []int32{id}})
			continue
		}
		var b *bucket
		if int(bi) >= size0 {
			b = appended[int(bi)-size0]
		} else if b = touched[bi]; b == nil {
			// First touch of a shared bucket: copy-on-write its header so
			// readers of t keep their length.
			shared := t.w.at(int(bi))
			b = &bucket{key64: shared.key64, ids: shared.ids}
			touched[bi] = b
		}
		b.ids = append(b.ids, id)
	}
	nt.applyDelta(touched, appended)
	nt.maybeCompact()
	return nt
}

// ownOverlay makes shard s of a merge's overlay maps private to the merge,
// copying the predecessor's shard map (and, on the merge's first new key,
// the shard slice) the first time the merge touches it; readers of the
// predecessor keep their maps untouched. It returns the merge's slice.
func ownOverlay[K comparable](cur, prev []map[K]int32, owned *uint64, s int) []map[K]int32 {
	if *owned == 0 {
		cur = make([]map[K]int32, tableShards)
		copy(cur, prev)
	}
	if *owned&(1<<s) == 0 {
		m := make(map[K]int32, len(cur[s])+1)
		for k, v := range cur[s] {
			m[k] = v
		}
		cur[s] = m
		*owned |= 1 << s
	}
	return cur
}

// applyDelta publishes a merge's touched and appended buckets into the new
// table's weight tree. Small deltas take the incremental path: one O(log
// #buckets) path copy per bucket, sharing everything else with the
// predecessor. A delta touching a large fraction of the buckets flips to a
// bulk freeze — one O(#buckets) rebuild is cheaper than per-bucket path
// copies once d · log #buckets exceeds #buckets — so bulk loads never pay
// more than the old eager publication did.
func (t *Table) applyDelta(touched map[int32]*bucket, appended []*bucket) {
	size0 := t.w.size
	if d := len(touched) + len(appended); d*8 >= size0 {
		order := make([]*bucket, 0, size0+len(appended))
		t.w.walk(func(i int, b *bucket) bool {
			if tb := touched[int32(i)]; tb != nil {
				b = tb
			}
			order = append(order, b)
			return true
		})
		order = append(order, appended...)
		t.w = newFenwick(order)
		return
	}
	for bi, b := range touched {
		t.w.set(int(bi), b)
	}
	for _, b := range appended {
		t.w.push(b)
	}
}

// mergeStr is merge64 for wide-mode tables.
func (t *Table) mergeStr(keys []string) *Table {
	nt := &Table{
		k: t.k, fnBase: t.fnBase, n: t.n + len(keys), bits: t.bits, narrow: false,
		keysStr: append(t.keysStr, keys...),
		baseStr: t.baseStr,
		nbase:   t.nbase,
		ovlStr:  t.ovlStr,
		novl:    t.novl,
		w:       t.w,
	}
	size0 := t.w.size
	touched := make(map[int32]*bucket, len(keys))
	var appended []*bucket
	var owned uint64
	for i, key := range keys {
		id := int32(t.n + i)
		bi, ok := nt.bucketIndexStr(key)
		if !ok {
			s := shardStr(key)
			nt.ovlStr = ownOverlay(nt.ovlStr, t.ovlStr, &owned, s)
			bi = int32(size0 + len(appended))
			nt.ovlStr[s][key] = bi
			nt.novl++
			appended = append(appended, &bucket{keyStr: key, ids: []int32{id}})
			continue
		}
		var b *bucket
		if int(bi) >= size0 {
			b = appended[int(bi)-size0]
		} else if b = touched[bi]; b == nil {
			shared := t.w.at(int(bi))
			b = &bucket{keyStr: shared.keyStr, ids: shared.ids}
			touched[bi] = b
		}
		b.ids = append(b.ids, id)
	}
	nt.applyDelta(touched, appended)
	nt.maybeCompact()
	return nt
}

// maybeCompact folds the overlay into fresh sharded base maps once it has
// outgrown its role as a small delta, keeping lookups near one map probe.
// This is the one publication path that walks every bucket (via the weight
// tree's in-order traversal); it runs only when the overlay exceeds a
// quarter of the base, so its O(#buckets) cost amortizes over the merges
// that grew the overlay.
func (t *Table) maybeCompact() {
	if t.novl <= 256 || t.novl*4 <= t.nbase {
		return
	}
	if t.narrow {
		base := make([]map[uint64]int32, tableShards)
		t.w.walk(func(gi int, b *bucket) bool {
			s := shard64(b.key64)
			if base[s] == nil {
				base[s] = make(map[uint64]int32)
			}
			base[s][b.key64] = int32(gi)
			return true
		})
		t.base64, t.ovl64 = base, nil
	} else {
		base := make([]map[string]int32, tableShards)
		t.w.walk(func(gi int, b *bucket) bool {
			s := shardStr(b.keyStr)
			if base[s] == nil {
				base[s] = make(map[string]int32)
			}
			base[s][b.keyStr] = int32(gi)
			return true
		})
		t.baseStr, t.ovlStr = base, nil
	}
	t.nbase, t.novl = t.w.size, 0
}

// Insert hashes v into every table's pending delta and logically appends it
// to the collection, returning its id. Cost: ℓ·k hash evaluations plus O(1)
// appends; the mutation becomes visible to new readers at the next Snapshot
// (which the Index read methods take automatically). In narrow-key mode no
// strings are allocated. Safe for concurrent use with readers and other
// writers.
func (x *Index) Insert(v vecmath.Vector) int {
	x.mu.Lock()
	defer x.mu.Unlock()
	id := x.appendLocked(v)
	x.npend.Add(1)
	if x.hook != nil {
		x.hook.OnInsert(id, v)
	}
	return id
}

// appendLocked hashes v into every table's pending delta one hash value at
// a time and appends it, returning its id. Callers hold x.mu.
func (x *Index) appendLocked(v vecmath.Vector) int {
	cur := x.cur.Load()
	if len(x.scratch) < cur.k {
		x.scratch = make([]uint64, cur.k)
	}
	vals := x.scratch[:cur.k]
	id := cur.N() + len(x.pendData)
	x.pendData = append(x.pendData, v)
	bits := cur.family.Bits()
	for t := 0; t < cur.ell; t++ {
		cur.hashInto(t, v, vals)
		if cur.narrow {
			x.pend64[t] = append(x.pend64[t], packWord(vals, bits))
		} else {
			x.pendStr[t] = append(x.pendStr[t], packKey(vals, bits))
		}
	}
	return id
}

// smallBatch is the largest batch InsertBatch hashes vector by vector like
// Insert: below it the signature engine's row materialization and worker
// fan-out cost more than they share (20k-vector DBLP index, k=20, ℓ=2, on
// a 2-vCPU Xeon: 1 vector 16 vs 8 µs, 4 vectors 55 vs 49 µs, 8 vectors 83
// vs 100 µs),
// and the engine allocates per batch where single-vector hashing does not.
// Both paths produce the same keys (engine_test pins batch signing to
// single-vector hashing).
const smallBatch = 4

// InsertBatch inserts vectors in order and returns the id of the first. A
// batch of more than smallBatch vectors is signed by the signature engine —
// keyed-stream rows shared by the batch are computed once, and signing runs
// in parallel — so bulk loading costs far less than len(vs) repeated
// Inserts; a smaller one is hashed like Insert. Like Insert, the batch
// lands in the pending delta and is published by the next Snapshot.
func (x *Index) InsertBatch(vs []vecmath.Vector) int {
	if len(vs) > 0 && len(vs) <= smallBatch {
		x.mu.Lock()
		defer x.mu.Unlock()
		first := x.appendLocked(vs[0])
		for _, v := range vs[1:] {
			x.appendLocked(v)
		}
		x.npend.Add(int64(len(vs)))
		if x.hook != nil {
			x.hook.OnInsertBatch(first, vs)
		}
		return first
	}
	// Sign outside the writer lock: the signatures are a pure function of
	// (family, k, ℓ, vs) — all version-invariant — so a long batch never
	// stalls readers that publish, only the final appends serialize.
	cur := x.cur.Load()
	var sigs *signatures
	if len(vs) > 0 {
		sigs = newEngine(cur.family, cur.k, cur.ell, x.sign).sign(vs)
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	first := x.cur.Load().N() + len(x.pendData)
	if len(vs) == 0 {
		return first
	}
	x.pendData = append(x.pendData, vs...)
	for t := 0; t < cur.ell; t++ {
		if sigs.narrow {
			x.pend64[t] = append(x.pend64[t], sigs.u64[t]...)
		} else {
			x.pendStr[t] = append(x.pendStr[t], sigs.str[t]...)
		}
	}
	x.npend.Add(int64(len(vs)))
	if x.hook != nil {
		x.hook.OnInsertBatch(first, vs)
	}
	return first
}
