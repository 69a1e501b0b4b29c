package persist

import (
	"encoding/binary"
	"hash/crc32"

	"lshjoin/internal/vecmath"
)

// The pending-delta log (write-ahead log). Between checkpoints, every
// mutation of the owning index is appended here so recovery can replay it
// on top of the last snapshot:
//
//	8 bytes  magic "LSHWAL1\n"
//	uint64   base version (the checkpoint this log extends)
//	uint32   CRC32-C over magic + base version
//	repeat:
//	    uint32  payload length
//	    uint32  CRC32-C over payload
//	    payload
//
// Record payloads are typed: recInsert (uvarint id, vector), recBatch
// (uvarint first id, uvarint count, vectors), recPublish (uvarint version).
// Records buffer in memory and are written + fsynced at publish markers, so
// the log's durable prefix always ends at a record boundary on an honest
// disk, and the durability unit is exactly "the last published version".
//
// Recovery scans the valid prefix. A scan failure at the tail — truncated
// header, record extending past EOF, checksum mismatch on the final record
// — is a torn tail: the prefix is kept, the tail truncated, never served.
// The same failure followed by further bytes means mid-file corruption and
// reports ErrCorrupt instead: silently dropping an interior record would
// resurface later records against the wrong state.

const (
	recInsert  = byte(1)
	recBatch   = byte(2)
	recPublish = byte(3)

	walHeaderLen = len(walMagic) + 8 + 4

	// maxRecordLen bounds one record so corrupted lengths cannot drive
	// huge allocations; batches above it are split by the store.
	maxRecordLen = 1 << 28
)

// walRec is one decoded record.
type walRec struct {
	kind    byte
	id      int // insert id, or first id of a batch
	version uint64
	vecs    []vecmath.Vector
}

// appendWalHeader frames a fresh log for the given base version.
func appendWalHeader(buf []byte, base uint64) []byte {
	start := len(buf)
	buf = append(buf, walMagic...)
	buf = binary.LittleEndian.AppendUint64(buf, base)
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf[start:], crcTable))
}

// appendRecord frames one payload.
func appendRecord(buf, payload []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, crcTable))
	return append(buf, payload...)
}

// appendInsertRec frames one insert.
func appendInsertRec(buf []byte, id int, v vecmath.Vector) []byte {
	payload := []byte{recInsert}
	payload = binary.AppendUvarint(payload, uint64(id))
	payload = appendVector(payload, v)
	return appendRecord(buf, payload)
}

// appendBatchRec frames one batch insert.
func appendBatchRec(buf []byte, first int, vs []vecmath.Vector) []byte {
	payload := []byte{recBatch}
	payload = binary.AppendUvarint(payload, uint64(first))
	payload = binary.AppendUvarint(payload, uint64(len(vs)))
	for _, v := range vs {
		payload = appendVector(payload, v)
	}
	return appendRecord(buf, payload)
}

// appendPublishRec frames one publish marker.
func appendPublishRec(buf []byte, version uint64) []byte {
	payload := []byte{recPublish}
	payload = binary.AppendUvarint(payload, version)
	return appendRecord(buf, payload)
}

// decodeRecPayload parses one checksum-valid record payload. Since the
// checksum matched, the bytes are exactly what the store wrote; a parse
// failure here is real corruption, never a torn tail.
func decodeRecPayload(payload []byte) (walRec, error) {
	var r walRec
	if len(payload) == 0 {
		return r, corrupt("persist: empty delta-log record")
	}
	c := &cursor{data: payload, off: 1}
	arena := newEntryArena(len(payload))
	r.kind = payload[0]
	switch r.kind {
	case recInsert:
		id, err := c.uvarint()
		if err != nil {
			return r, err
		}
		if id > maxN {
			return r, corrupt("persist: insert id %d out of range", id)
		}
		r.id = int(id)
		v, err := decodeVector(c, arena)
		if err != nil {
			return r, err
		}
		r.vecs = []vecmath.Vector{v}
	case recBatch:
		first, err := c.uvarint()
		if err != nil {
			return r, err
		}
		count, err := c.uvarint()
		if err != nil {
			return r, err
		}
		if first > maxN || count > uint64(c.rem()) {
			return r, corrupt("persist: batch header out of range")
		}
		r.id = int(first)
		r.vecs = make([]vecmath.Vector, 0, count)
		for i := uint64(0); i < count; i++ {
			v, err := decodeVector(c, arena)
			if err != nil {
				return r, err
			}
			r.vecs = append(r.vecs, v)
		}
	case recPublish:
		v, err := c.uvarint()
		if err != nil {
			return r, err
		}
		r.version = v
	default:
		return r, corrupt("persist: unknown delta-log record type %d", r.kind)
	}
	if c.rem() != 0 {
		return r, corrupt("persist: %d trailing bytes in delta-log record", c.rem())
	}
	return r, nil
}

// scanWAL parses a delta log for the given base version. It returns the
// decoded records of the valid prefix and that prefix's byte length. A torn
// tail (any structural failure that extends to EOF) is excluded from
// validLen for the caller to truncate; corruption not explicable as a torn
// tail reports ErrCorrupt.
func scanWAL(data []byte, base uint64) (recs []walRec, validLen int, err error) {
	if len(data) < walHeaderLen {
		// Torn header: the log was created but its first write never
		// completed, so no records can follow. Treat as empty.
		return nil, 0, nil
	}
	hdr := data[:walHeaderLen]
	sum := crc32.Checksum(hdr[:walHeaderLen-4], crcTable)
	headerOK := string(hdr[:len(walMagic)]) == walMagic &&
		sum == binary.LittleEndian.Uint32(hdr[walHeaderLen-4:])
	if !headerOK {
		if len(data) == walHeaderLen {
			return nil, 0, nil // torn or flipped header, nothing after it
		}
		return nil, 0, corrupt("persist: delta-log header invalid with records following")
	}
	if got := binary.LittleEndian.Uint64(data[len(walMagic):]); got != base {
		return nil, 0, corrupt("persist: delta log extends version %d, manifest names %d", got, base)
	}
	off := walHeaderLen
	for off < len(data) {
		if len(data)-off < 8 {
			return recs, off, nil // torn record header at EOF
		}
		plen := binary.LittleEndian.Uint32(data[off:])
		want := binary.LittleEndian.Uint32(data[off+4:])
		if uint64(plen) > maxRecordLen {
			if isTail(data, off) {
				return recs, off, nil
			}
			return nil, 0, corrupt("persist: delta-log record length %d", plen)
		}
		end := off + 8 + int(plen)
		if end > len(data) {
			return recs, off, nil // record extends past EOF: torn tail
		}
		payload := data[off+8 : end]
		if crc32.Checksum(payload, crcTable) != want {
			if end == len(data) {
				return recs, off, nil // checksum failure on the final record: torn
			}
			return nil, 0, corrupt("persist: delta-log record checksum mismatch mid-file")
		}
		rec, err := decodeRecPayload(payload)
		if err != nil {
			return nil, 0, err
		}
		recs = append(recs, rec)
		off = end
	}
	return recs, off, nil
}

// isTail reports whether a structural failure at off can be explained as a
// torn final record — i.e. nothing after off parses as a record boundary we
// would have to drop. With a corrupted length field the distinction is
// heuristic; err on the side of torn only when off is in the final
// maxRecordLen window.
func isTail(data []byte, off int) bool {
	return len(data)-off <= maxRecordLen
}
