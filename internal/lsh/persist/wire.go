package persist

import (
	"encoding/binary"

	"lshjoin/internal/lsh"
	"lshjoin/internal/vecmath"
)

// Exported codec entry points for the network layer (internal/shardrpc).
// The wire protocol deliberately reuses the store's formats: a shard
// server's snapshot-fetch response carries exactly the bytes a checkpoint
// file holds, and streamed ingest and delta fetches carry vectors in the
// delta log's vector encoding. One codec, one set of decode limits, one
// fuzz surface.

// EncodeSnapshot serializes a published snapshot in the checkpoint file
// format (magic, checksummed meta/data/table/end sections).
func EncodeSnapshot(s *lsh.Snapshot) ([]byte, error) { return encodeSnapshot(s) }

// DecodeSnapshot parses a snapshot encoding and rebuilds the writable index
// at that version. Decoding validates everything a corrupted or adversarial
// peer could get wrong and never panics; failures wrap ErrCorrupt.
func DecodeSnapshot(data []byte) (*lsh.Index, error) { return decodeSnapshot(data) }

// EncodeVectors frames a vector batch: a uvarint count followed by each
// vector in the store's encoding (uvarint nnz, delta-coded dims, float32
// weight bits).
func EncodeVectors(vs []vecmath.Vector) []byte {
	buf := binary.AppendUvarint(nil, uint64(len(vs)))
	for _, v := range vs {
		buf = appendVector(buf, v)
	}
	return buf
}

// DecodeVectors inverts EncodeVectors, rejecting trailing bytes and
// applying the store's decode limits; failures wrap ErrCorrupt.
func DecodeVectors(payload []byte) ([]vecmath.Vector, error) {
	c := &cursor{data: payload}
	n, err := c.uvarint()
	if err != nil {
		return nil, err
	}
	// A vector occupies at least one byte, so a count past the payload size
	// is corrupt regardless of contents.
	if n > maxN || n > uint64(len(payload)) {
		return nil, corrupt("persist: vector count %d exceeds limits", n)
	}
	vs := make([]vecmath.Vector, 0, n)
	arena := newEntryArena(len(payload))
	for i := uint64(0); i < n; i++ {
		v, err := decodeVector(c, arena)
		if err != nil {
			return nil, err
		}
		vs = append(vs, v)
	}
	if c.rem() != 0 {
		return nil, corrupt("persist: %d trailing bytes after vectors", c.rem())
	}
	return vs, nil
}
