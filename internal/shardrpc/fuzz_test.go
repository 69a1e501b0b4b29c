package shardrpc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"

	"lshjoin/internal/lsh"
	"lshjoin/internal/lsh/persist"
	"lshjoin/internal/vecmath"
)

// FuzzFrameDecode drives the frame decoder — the first code that touches
// every byte arriving from the network — with arbitrary input: it must
// never panic, must type every structural failure as ErrProtocol (i/o
// truncation excepted), and on success must round-trip. Decoded payloads
// are then pushed through every response decoder, which must be equally
// panic-free on arbitrary bytes.
func FuzzFrameDecode(f *testing.F) {
	f.Add(AppendFrame(nil, THello, encodeHelloReq()))
	f.Add(AppendFrame(nil, THelloOK, encodeHelloResp(Hello{
		Family: lsh.FamilySpec{Name: "simhash", Seed: 7, Bits: 1}, K: 6, Ell: 3, Version: 1,
	})))
	f.Add(AppendFrame(nil, TSnapshotOK, encodeSnapshotResp(3, []byte("blob"))))
	f.Add(AppendFrame(nil, TStatsOK, encodeStatsResp(2, lsh.SnapshotSummary{N: 4, TableNH: []int64{6, 0, 1}})))
	f.Add(AppendFrame(nil, TSampleOK, encodeSampleResp(2, [][2]int32{{0, 3}, {1, 2}})))
	f.Add(AppendFrame(nil, TErr, encodeErrResp(CodeBadRequest, "nope")))
	f.Add(AppendFrame(nil, TDelta, encodeDeltaReq(9, 3, 40)))
	f.Add(AppendFrame(nil, TFullSnap, encodeFullSnapResp(9, 3, []byte("blob"))))
	for _, payload := range deltaRespSeeds() {
		f.Add(AppendFrame(nil, TDeltaOK, payload))
	}
	f.Add([]byte("LSHRPC1\n"))
	corrupt := AppendFrame(nil, TStatsOK, []byte("payload"))
	corrupt[len(corrupt)-2] ^= 0x40
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, data []byte) {
		typ, payload, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrProtocol) && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("ReadFrame error is untyped: %v", err)
			}
			return
		}
		// Round-trip: re-encoding the decoded frame must reproduce the bytes
		// consumed.
		consumed := frameHeaderLen + len(payload) + 4
		if enc := AppendFrame(nil, typ, payload); !bytes.Equal(enc, data[:consumed]) {
			t.Fatalf("frame round-trip mismatch for type %d", typ)
		}
		// Every payload decoder must reject garbage gracefully.
		decodeHelloReq(payload)
		decodeHelloResp(payload)
		decodeIngestResp(payload)
		decodeVersion(payload)
		decodeSnapshotResp(payload)
		decodeStatsResp(payload)
		decodeSampleReq(payload)
		decodeSampleResp(payload)
		decodeErrResp(payload)
		decodeDeltaReq(payload)
		decodeDeltaResp(payload, 3)
		decodeFullSnapResp(payload)
	})
}

// deltaRespSeeds returns DeltaOK payloads for a server hashing with ℓ = 3:
// a well-formed delta first, then the malformed shapes a hostile or broken
// peer could send.
func deltaRespSeeds() [][]byte {
	vs := []vecmath.Vector{vecmath.FromDims([]uint32{1, 4, 9}), vecmath.FromDims([]uint32{2, 4})}
	head := encodeStatsResp(3, lsh.SnapshotSummary{N: 2, TableNH: []int64{1, 0, 0}})
	valid := append(append([]byte(nil), head...), persist.EncodeVectors(vs)...)
	// A vector count far past what the payload can hold.
	hugeCount := binary.AppendUvarint(append([]byte(nil), head...), 1<<30)
	// Five N_H values for ℓ = 3.
	longNH := append(encodeStatsResp(3, lsh.SnapshotSummary{N: 2, TableNH: []int64{1, 0, 0, 2, 5}}), persist.EncodeVectors(vs)...)
	// An N_H count past both maxEll and the payload.
	hugeEll := binary.AppendUvarint(binary.AppendUvarint(binary.LittleEndian.AppendUint64(nil, 3), 2), 1<<40)
	return [][]byte{valid, hugeCount, longNH, hugeEll}
}

// A DeltaOK payload claiming more vectors or N_H values than it holds, or
// more N_H values than the server's ℓ, is a protocol violation, rejected
// before anything is allocated for the claimed count.
func TestDeltaRespDecodeBounds(t *testing.T) {
	seeds := deltaRespSeeds()
	if _, d, err := decodeDeltaResp(seeds[0], 3); err != nil || len(d.Vectors) != 2 || d.N != 2 {
		t.Fatalf("valid delta: %+v, %v", d, err)
	}
	for i, payload := range seeds[1:] {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err := decodeDeltaResp(payload, 3)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrProtocol) {
			t.Errorf("malformed delta %d: error = %v, want ErrProtocol", i, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<16 {
			t.Errorf("malformed delta %d allocated %d bytes", i, grew)
		}
	}
}
