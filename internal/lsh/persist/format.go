package persist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"lshjoin/internal/lsh"
	"lshjoin/internal/vecmath"
)

// On-disk snapshot format. A snapshot file is the magic string followed by
// a sequence of checksummed sections:
//
//	8 bytes  magic "LSHSNAP1"
//	repeat:
//	    uint32  section type
//	    uint64  payload length
//	    payload
//	    uint32  CRC32-C over (type, length, payload)
//
// in the fixed order meta, data, one table section per table, end. The end
// section (empty payload) doubles as an explicit EOF marker, so a file
// truncated at any byte — even exactly at a section boundary — fails
// decoding. Sections are checksummed individually to localize corruption;
// every decode failure, including trailing garbage after the end section,
// reports ErrCorrupt.
//
// The meta section carries the family spec (name, seed, bit width), k, ℓ,
// the snapshot version and the vector count. The data section carries the
// vectors in vecio's encoding (uvarint nnz, delta-coded dims, float32
// weights). A table section carries the bucket sequence in deterministic
// first-appearance order: per bucket, the packed key (8 bytes narrow,
// 8·k wide) and the member ids delta-coded ascending. That sequence is the
// whole table — per-vector keys, lookup maps and the Fenwick weight tree
// are rebuilt on load, which lsh.RestoreIndex proves equivalent (including
// SamplePair draw-for-draw; see restore.go and persist_test.go).

const (
	snapMagic     = "LSHSNAP1"
	manifestMagic = "LSHMAN1\n"
	groupMagic    = "LSHGRP1\n"
	crossMagic    = "LSHXJN1\n"
	walMagic      = "LSHWAL1\n"

	secMeta  = uint32(1)
	secData  = uint32(2)
	secTable = uint32(3)
	secEnd   = uint32(0x444E45) // "END"

	formatVersion = 1

	// manifestFormat versions the GROUP and CROSS manifests. Format 1 also
	// carried per-shard version words that nothing read (each shard's own
	// MANIFEST is authoritative); format 2 records shape only, and the
	// decoders skip the words of format 1.
	manifestFormat = 2

	// Decode limits: corrupted lengths must not drive huge allocations.
	maxNameLen = 64
	maxEll     = 1 << 12
	maxK       = 1 << 16
	maxN       = 1<<31 - 1
	maxNNZ     = 1 << 26
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

func corrupt(format string, args ...any) error {
	return fmt.Errorf("%s: %w", fmt.Sprintf(format, args...), ErrCorrupt)
}

// appendSection frames payload as one checksummed section.
func appendSection(buf []byte, typ uint32, payload []byte) []byte {
	start := len(buf)
	buf = binary.LittleEndian.AppendUint32(buf, typ)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf[start:], crcTable))
}

// cursor is a bounds-checked reader over a decoded byte slice. Every read
// failure is an ErrCorrupt.
type cursor struct {
	data []byte
	off  int
}

func (c *cursor) rem() int { return len(c.data) - c.off }

func (c *cursor) bytes(n int) ([]byte, error) {
	if n < 0 || c.rem() < n {
		return nil, corrupt("persist: truncated at offset %d", c.off)
	}
	b := c.data[c.off : c.off+n]
	c.off += n
	return b, nil
}

func (c *cursor) u32() (uint32, error) {
	b, err := c.bytes(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (c *cursor) u64() (uint64, error) {
	b, err := c.bytes(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

func (c *cursor) uvarint() (uint64, error) {
	v, n := binary.Uvarint(c.data[c.off:])
	if n <= 0 {
		return 0, corrupt("persist: bad uvarint at offset %d", c.off)
	}
	c.off += n
	return v, nil
}

// section reads the next section, verifying its checksum, and returns its
// type and payload.
func (c *cursor) section() (uint32, []byte, error) {
	start := c.off
	typ, err := c.u32()
	if err != nil {
		return 0, nil, err
	}
	plen, err := c.u64()
	if err != nil {
		return 0, nil, err
	}
	if plen > uint64(c.rem()) {
		return 0, nil, corrupt("persist: section length %d exceeds file", plen)
	}
	payload, err := c.bytes(int(plen))
	if err != nil {
		return 0, nil, err
	}
	sum := crc32.Checksum(c.data[start:c.off], crcTable)
	want, err := c.u32()
	if err != nil {
		return 0, nil, err
	}
	if sum != want {
		return 0, nil, corrupt("persist: section type %d checksum mismatch", typ)
	}
	return typ, payload, nil
}

// snapMeta is the decoded meta section.
type snapMeta struct {
	spec    lsh.FamilySpec
	k, ell  int
	version uint64
	n       int
}

// appendVector serializes one vector (uvarint nnz, then per entry a
// delta-coded dim and the float32 weight bits).
func appendVector(buf []byte, v vecmath.Vector) []byte {
	es := v.Entries()
	buf = binary.AppendUvarint(buf, uint64(len(es)))
	prev := uint32(0)
	for _, e := range es {
		buf = binary.AppendUvarint(buf, uint64(e.Dim-prev))
		prev = e.Dim
		buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(e.Weight))
	}
	return buf
}

// entryArena hands out the entry slices of a decoded vector batch from
// shared chunks, so a batch costs a few allocations instead of one or more
// per vector. Each slice is capacity-clamped, so no append on one vector can
// reach its neighbour's entries.
type entryArena struct {
	free  []vecmath.Entry
	chunk int
}

// newEntryArena sizes chunks for a payload of the given length: every
// entry takes at least 5 encoded bytes, so a small batch never gets more
// than it can use.
func newEntryArena(payloadLen int) *entryArena {
	return &entryArena{chunk: min(payloadLen/5+1, 4096)}
}

func (a *entryArena) take(n int) []vecmath.Entry {
	if len(a.free) < n {
		a.free = make([]vecmath.Entry, max(n, a.chunk))
	}
	es := a.free[:n:n]
	a.free = a.free[n:]
	return es
}

// decodeVector inverts appendVector. Canonical entries (what appendVector
// writes) become the vector in place; anything else goes through
// vecmath.New, so corrupt entries (non-finite weights) are rejected and
// non-canonical ones normalized exactly as before.
func decodeVector(c *cursor, arena *entryArena) (vecmath.Vector, error) {
	nnz, err := c.uvarint()
	if err != nil {
		return vecmath.Vector{}, err
	}
	if nnz > maxNNZ || nnz > uint64(c.rem()) {
		return vecmath.Vector{}, corrupt("persist: vector nnz %d exceeds limits", nnz)
	}
	// The entry loop reads the payload directly rather than through cursor
	// calls: it is the innermost loop of every snapshot and batch decode.
	es := arena.take(int(nnz))
	buf := c.data[c.off:]
	p := 0
	dim := uint64(0)
	for e := range es {
		delta, n := binary.Uvarint(buf[p:])
		if n <= 0 {
			return vecmath.Vector{}, corrupt("persist: bad uvarint at offset %d", c.off+p)
		}
		p += n
		dim += delta
		if dim > math.MaxUint32 {
			return vecmath.Vector{}, corrupt("persist: vector dim overflows")
		}
		if len(buf)-p < 4 {
			return vecmath.Vector{}, corrupt("persist: truncated at offset %d", c.off+p)
		}
		es[e] = vecmath.Entry{Dim: uint32(dim), Weight: math.Float32frombits(binary.LittleEndian.Uint32(buf[p:]))}
		p += 4
	}
	c.off += p
	if v, ok := vecmath.FromSorted(es); ok {
		return v, nil
	}
	v, err := vecmath.New(es)
	if err != nil {
		return vecmath.Vector{}, corrupt("persist: bad vector: %v", err)
	}
	return v, nil
}

// encodeSnapshot serializes a published snapshot.
func encodeSnapshot(s *lsh.Snapshot) ([]byte, error) {
	spec, err := lsh.SpecOf(s.Family())
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	if s.N() > maxN {
		return nil, fmt.Errorf("persist: %d vectors exceed format limit", s.N())
	}
	buf := []byte(snapMagic)

	var meta []byte
	meta = binary.AppendUvarint(meta, formatVersion)
	meta = binary.AppendUvarint(meta, uint64(len(spec.Name)))
	meta = append(meta, spec.Name...)
	meta = binary.LittleEndian.AppendUint64(meta, spec.Seed)
	meta = binary.AppendUvarint(meta, uint64(spec.Bits))
	meta = binary.AppendUvarint(meta, uint64(s.K()))
	meta = binary.AppendUvarint(meta, uint64(s.L()))
	meta = binary.LittleEndian.AppendUint64(meta, s.Version())
	meta = binary.AppendUvarint(meta, uint64(s.N()))
	buf = appendSection(buf, secMeta, meta)

	var data []byte
	for _, v := range s.Data() {
		data = appendVector(data, v)
	}
	buf = appendSection(buf, secData, data)

	for t := 0; t < s.L(); t++ {
		tab := s.Table(t)
		var sec []byte
		sec = binary.AppendUvarint(sec, uint64(tab.NumBuckets()))
		tab.ForEachBucket(func(key string, ids []int32) bool {
			sec = append(sec, key...)
			sec = binary.AppendUvarint(sec, uint64(len(ids)))
			prev := int32(-1)
			for _, id := range ids {
				sec = binary.AppendUvarint(sec, uint64(id-prev))
				prev = id
			}
			return true
		})
		buf = appendSection(buf, secTable, sec)
	}
	return appendSection(buf, secEnd, nil), nil
}

// decodeMeta parses the meta section payload.
func decodeMeta(payload []byte) (snapMeta, error) {
	c := &cursor{data: payload}
	var m snapMeta
	fv, err := c.uvarint()
	if err != nil {
		return m, err
	}
	if fv != formatVersion {
		return m, corrupt("persist: unsupported format version %d", fv)
	}
	nameLen, err := c.uvarint()
	if err != nil {
		return m, err
	}
	if nameLen > maxNameLen {
		return m, corrupt("persist: family name length %d", nameLen)
	}
	name, err := c.bytes(int(nameLen))
	if err != nil {
		return m, err
	}
	m.spec.Name = string(name)
	if m.spec.Seed, err = c.u64(); err != nil {
		return m, err
	}
	bits, err := c.uvarint()
	if err != nil {
		return m, err
	}
	m.spec.Bits = int(bits)
	k, err := c.uvarint()
	if err != nil {
		return m, err
	}
	ell, err := c.uvarint()
	if err != nil {
		return m, err
	}
	if k < 1 || k > maxK || ell < 1 || ell > maxEll {
		return m, corrupt("persist: parameters k=%d ℓ=%d out of range", k, ell)
	}
	m.k, m.ell = int(k), int(ell)
	if m.version, err = c.u64(); err != nil {
		return m, err
	}
	n, err := c.uvarint()
	if err != nil {
		return m, err
	}
	if n > maxN {
		return m, corrupt("persist: vector count %d out of range", n)
	}
	m.n = int(n)
	if c.rem() != 0 {
		return m, corrupt("persist: %d trailing bytes in meta section", c.rem())
	}
	return m, nil
}

// decodeTable parses one table section payload into the bucket sequence.
func decodeTable(payload []byte, keyLen, n int) ([]lsh.RestoredBucket, error) {
	c := &cursor{data: payload}
	count, err := c.uvarint()
	if err != nil {
		return nil, err
	}
	// Each bucket occupies at least keyLen+2 bytes, and non-empty buckets
	// cannot outnumber vectors.
	if count > uint64(n) || count > uint64(len(payload)/(keyLen+2)+1) {
		return nil, corrupt("persist: bucket count %d out of range", count)
	}
	seq := make([]lsh.RestoredBucket, 0, count)
	// Every id takes at least one byte, and a valid table holds n of them:
	// one slab backs all buckets' id lists.
	idSlab := make([]int32, 0, min(n, len(payload)))
	// Narrow keys are parsed into machine words on restore and dropped, so
	// they share one string copy of the payload instead of costing an
	// allocation each; wide keys live on in the table and get their own.
	var whole string
	if keyLen == 8 {
		whole = string(payload)
	}
	for b := uint64(0); b < count; b++ {
		off := c.off
		key, err := c.bytes(keyLen)
		if err != nil {
			return nil, err
		}
		var keyStr string
		if whole != "" {
			keyStr = whole[off : off+keyLen]
		} else {
			keyStr = string(key)
		}
		sz, err := c.uvarint()
		if err != nil {
			return nil, err
		}
		if sz > uint64(n) || sz > uint64(c.rem()+1) {
			return nil, corrupt("persist: bucket size %d out of range", sz)
		}
		start := len(idSlab)
		prev := int64(-1)
		for i := uint64(0); i < sz; i++ {
			delta, err := c.uvarint()
			if err != nil {
				return nil, err
			}
			if delta == 0 || delta > uint64(n) {
				return nil, corrupt("persist: bucket id delta %d invalid", delta)
			}
			prev += int64(delta)
			if prev >= int64(n) {
				return nil, corrupt("persist: bucket id %d out of range", prev)
			}
			idSlab = append(idSlab, int32(prev))
		}
		seq = append(seq, lsh.RestoredBucket{Key: keyStr, IDs: idSlab[start:len(idSlab):len(idSlab)]})
	}
	if c.rem() != 0 {
		return nil, corrupt("persist: %d trailing bytes in table section", c.rem())
	}
	return seq, nil
}

// decodeSnapshot parses a snapshot file and rebuilds the writable index at
// that version. It never panics on arbitrary input (FuzzSnapshotDecode).
func decodeSnapshot(data []byte) (*lsh.Index, error) {
	c := &cursor{data: data}
	magic, err := c.bytes(len(snapMagic))
	if err != nil || string(magic) != snapMagic {
		return nil, corrupt("persist: bad snapshot magic")
	}
	typ, payload, err := c.section()
	if err != nil {
		return nil, err
	}
	if typ != secMeta {
		return nil, corrupt("persist: first section type %d, want meta", typ)
	}
	meta, err := decodeMeta(payload)
	if err != nil {
		return nil, err
	}
	family, err := lsh.FamilyFromSpec(meta.spec)
	if err != nil {
		return nil, corrupt("persist: %v", err)
	}

	typ, payload, err = c.section()
	if err != nil {
		return nil, err
	}
	if typ != secData {
		return nil, corrupt("persist: second section type %d, want data", typ)
	}
	dc := &cursor{data: payload}
	if meta.n > len(payload) {
		return nil, corrupt("persist: %d vectors in %d-byte data section", meta.n, len(payload))
	}
	vectors := make([]vecmath.Vector, 0, meta.n)
	arena := newEntryArena(len(payload))
	for i := 0; i < meta.n; i++ {
		v, err := decodeVector(dc, arena)
		if err != nil {
			return nil, err
		}
		vectors = append(vectors, v)
	}
	if dc.rem() != 0 {
		return nil, corrupt("persist: %d trailing bytes in data section", dc.rem())
	}

	keyLen := 8
	if meta.k*meta.spec.Bits > 64 {
		keyLen = 8 * meta.k
	}
	tables := make([][]lsh.RestoredBucket, meta.ell)
	for t := 0; t < meta.ell; t++ {
		typ, payload, err = c.section()
		if err != nil {
			return nil, err
		}
		if typ != secTable {
			return nil, corrupt("persist: section type %d, want table", typ)
		}
		if tables[t], err = decodeTable(payload, keyLen, meta.n); err != nil {
			return nil, err
		}
	}

	typ, payload, err = c.section()
	if err != nil {
		return nil, err
	}
	if typ != secEnd || len(payload) != 0 {
		return nil, corrupt("persist: missing end section")
	}
	if c.rem() != 0 {
		return nil, corrupt("persist: %d bytes after end section", c.rem())
	}

	idx, err := lsh.RestoreIndex(family, meta.k, meta.ell, meta.version, vectors, tables)
	if err != nil {
		return nil, corrupt("persist: %v", err)
	}
	return idx, nil
}

// encodeManifest frames the durable snapshot version.
func encodeManifest(version uint64) []byte {
	buf := []byte(manifestMagic)
	buf = binary.LittleEndian.AppendUint64(buf, version)
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, crcTable))
}

// decodeManifest inverts encodeManifest.
func decodeManifest(data []byte) (uint64, error) {
	if len(data) != len(manifestMagic)+12 || string(data[:len(manifestMagic)]) != manifestMagic {
		return 0, corrupt("persist: bad manifest")
	}
	body := data[:len(data)-4]
	if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(data[len(data)-4:]) {
		return 0, corrupt("persist: manifest checksum mismatch")
	}
	v := binary.LittleEndian.Uint64(data[len(manifestMagic):])
	if v < 1 {
		return 0, corrupt("persist: manifest version 0")
	}
	return v, nil
}

// GroupMeta is the sharded store's GROUP manifest: the shape every shard
// shares — hashing parameters and shard count. Each shard's own manifest is
// authoritative for its state.
type GroupMeta struct {
	Family lsh.FamilySpec
	K, Ell int
	Shards int
}

// CrossMeta is the two-sided (cross-join) store's CROSS manifest: the shape
// both sides share. Cross joins stratify by a single bipartite matching, so
// ℓ is always 1.
type CrossMeta struct {
	Family lsh.FamilySpec
	K      int
	Shards int // per side
}

// encodeGroupManifest frames a GroupMeta: magic, format, family spec, k, ℓ,
// shard count, checksum.
func encodeGroupManifest(m GroupMeta) []byte {
	buf := appendShapeHead([]byte(groupMagic), m.Family, m.K)
	buf = binary.AppendUvarint(buf, uint64(m.Ell))
	buf = binary.AppendUvarint(buf, uint64(m.Shards))
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, crcTable))
}

// decodeGroupManifest inverts encodeGroupManifest, and skips the per-shard
// version words of format 1.
func decodeGroupManifest(data []byte) (GroupMeta, error) {
	var m GroupMeta
	c, fv, err := openManifest(data, groupMagic, "group")
	if err != nil {
		return m, err
	}
	if m.Family, m.K, err = c.shapeHead(); err != nil {
		return m, err
	}
	ell, err := c.uvarint()
	if err != nil {
		return m, err
	}
	shards, err := c.shardCount(fv, 1)
	if err != nil {
		return m, err
	}
	if ell < 1 || ell > maxEll {
		return m, corrupt("persist: group parameters out of range")
	}
	m.Ell, m.Shards = int(ell), shards
	if c.rem() != 0 {
		return m, corrupt("persist: %d trailing bytes in group manifest", c.rem())
	}
	return m, nil
}

// encodeCrossManifest frames a CrossMeta: magic, format, family spec, k,
// shard count, checksum.
func encodeCrossManifest(m CrossMeta) []byte {
	buf := appendShapeHead([]byte(crossMagic), m.Family, m.K)
	buf = binary.AppendUvarint(buf, uint64(m.Shards))
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, crcTable))
}

// decodeCrossManifest inverts encodeCrossManifest, and skips the two
// per-side version vectors of format 1.
func decodeCrossManifest(data []byte) (CrossMeta, error) {
	var m CrossMeta
	c, fv, err := openManifest(data, crossMagic, "cross")
	if err != nil {
		return m, err
	}
	if m.Family, m.K, err = c.shapeHead(); err != nil {
		return m, err
	}
	if m.Shards, err = c.shardCount(fv, 2); err != nil {
		return m, err
	}
	if c.rem() != 0 {
		return m, corrupt("persist: %d trailing bytes in cross manifest", c.rem())
	}
	return m, nil
}

// appendShapeHead starts a GROUP or CROSS manifest: magic, format, then the
// family spec and k.
func appendShapeHead(buf []byte, spec lsh.FamilySpec, k int) []byte {
	buf = binary.AppendUvarint(buf, manifestFormat)
	buf = binary.AppendUvarint(buf, uint64(len(spec.Name)))
	buf = append(buf, spec.Name...)
	buf = binary.LittleEndian.AppendUint64(buf, spec.Seed)
	buf = binary.AppendUvarint(buf, uint64(spec.Bits))
	return binary.AppendUvarint(buf, uint64(k))
}

// openManifest checks a GROUP or CROSS manifest's magic and checksum and
// returns a cursor over its body past the format word, and the format.
func openManifest(data []byte, magic, kind string) (*cursor, uint64, error) {
	if len(data) < len(magic)+4 || string(data[:len(magic)]) != magic {
		return nil, 0, corrupt("persist: bad %s manifest", kind)
	}
	body := data[:len(data)-4]
	if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(data[len(data)-4:]) {
		return nil, 0, corrupt("persist: %s manifest checksum mismatch", kind)
	}
	c := &cursor{data: body, off: len(magic)}
	fv, err := c.uvarint()
	if err != nil {
		return nil, 0, err
	}
	if fv != 1 && fv != manifestFormat {
		return nil, 0, corrupt("persist: unsupported %s format version %d", kind, fv)
	}
	return c, fv, nil
}

// shapeHead reads what appendShapeHead wrote after the format word.
func (c *cursor) shapeHead() (lsh.FamilySpec, int, error) {
	var spec lsh.FamilySpec
	nameLen, err := c.uvarint()
	if err != nil {
		return spec, 0, err
	}
	if nameLen > maxNameLen {
		return spec, 0, corrupt("persist: family name length %d", nameLen)
	}
	name, err := c.bytes(int(nameLen))
	if err != nil {
		return spec, 0, err
	}
	spec.Name = string(name)
	if spec.Seed, err = c.u64(); err != nil {
		return spec, 0, err
	}
	bits, err := c.uvarint()
	if err != nil {
		return spec, 0, err
	}
	spec.Bits = int(bits)
	k, err := c.uvarint()
	if err != nil {
		return spec, 0, err
	}
	if k < 1 || k > maxK {
		return spec, 0, corrupt("persist: manifest k = %d out of range", k)
	}
	return spec, int(k), nil
}

// shardCount reads a manifest's shard count. In format 1 the count was
// followed by version vectors, one word per shard per vector; it skips them.
func (c *cursor) shardCount(fv uint64, vectors int) (int, error) {
	shards, err := c.uvarint()
	if err != nil {
		return 0, err
	}
	if shards < 1 || shards > lsh.MaxShards {
		return 0, corrupt("persist: manifest shard count %d out of range", shards)
	}
	if fv == 1 {
		if _, err := c.bytes(8 * vectors * int(shards)); err != nil {
			return 0, err
		}
	}
	return int(shards), nil
}
