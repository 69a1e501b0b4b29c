package persist

import (
	"testing"

	"lshjoin/internal/lsh"
)

// fuzzSeedBlobs encodes real store artifacts so the fuzzer starts from the
// valid format and mutates inward, instead of spending its budget on magic
// bytes.
func fuzzSeedBlobs(tb testing.TB) [][]byte {
	tb.Helper()
	var blobs [][]byte
	for _, cfg := range roundtripConfigs {
		data := testData(12, 171)
		idx, err := lsh.Build(data, cfg.family, cfg.k, cfg.ell)
		if err != nil {
			tb.Fatal(err)
		}
		blob, err := encodeSnapshot(idx.Current())
		if err != nil {
			tb.Fatal(err)
		}
		blobs = append(blobs, blob)
	}
	blobs = append(blobs, encodeManifest(3))
	wal := appendWalHeader(nil, 1)
	wal = appendInsertRec(wal, 12, testData(1, 5)[0])
	wal = appendBatchRec(wal, 13, testData(3, 6))
	wal = appendPublishRec(wal, 2)
	blobs = append(blobs, wal)
	blobs = append(blobs, encodeGroupManifest(GroupMeta{
		Family: lsh.FamilySpec{Name: "simhash", Seed: 9, Bits: 1},
		K:      4, Ell: 2, Shards: 3,
	}))
	blobs = append(blobs, encodeCrossManifest(CrossMeta{
		Family: lsh.FamilySpec{Name: "simhash", Seed: 11, Bits: 1},
		K:      4, Shards: 2,
	}))
	return append(blobs, format1Group, format1OneShardGroup, format1Cross)
}

// FuzzSnapshotDecode asserts the whole decode surface never panics on
// arbitrary bytes — snapshots, manifests, group manifests and delta logs
// all go through it, since any of those files can arrive corrupted. A
// successfully decoded snapshot must additionally be a usable index.
func FuzzSnapshotDecode(f *testing.F) {
	for _, blob := range fuzzSeedBlobs(f) {
		f.Add(blob)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if idx, err := decodeSnapshot(data); err == nil {
			s := idx.Current()
			if s.Version() < 1 {
				t.Fatalf("decoded snapshot with version %d", s.Version())
			}
			for ti := 0; ti < s.L(); ti++ {
				s.Table(ti).NH() // exercises the rebuilt Fenwick tree
			}
		}
		decodeManifest(data)
		decodeGroupManifest(data)
		decodeCrossManifest(data)
		scanWAL(data, 1)
	})
}
