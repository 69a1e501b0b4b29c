package persist

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"lshjoin/internal/faultfs"
	"lshjoin/internal/lsh"
	"lshjoin/internal/vecmath"
	"lshjoin/internal/xrand"
)

// testData generates n sparse vectors over a small dimension universe, so
// bucket collisions (and hence non-trivial Fenwick weights) are common.
func testData(n int, seed uint64) []vecmath.Vector {
	rng := xrand.New(seed)
	out := make([]vecmath.Vector, n)
	for i := range out {
		dims := map[uint32]struct{}{}
		for len(dims) < 2+rng.Intn(3) {
			dims[uint32(rng.Intn(40))] = struct{}{}
		}
		flat := make([]uint32, 0, len(dims))
		for d := range dims {
			flat = append(flat, d)
		}
		out[i] = vecmath.FromDims(flat)
	}
	return out
}

type bucketDump struct {
	key string
	ids []int32
}

func dumpTable(tb *lsh.Table) []bucketDump {
	var out []bucketDump
	tb.ForEachBucket(func(key string, ids []int32) bool {
		out = append(out, bucketDump{key: key, ids: append([]int32(nil), ids...)})
		return true
	})
	return out
}

// snapshotsEqual asserts got is observably identical to want: parameters,
// version, vector data, canonical bucket dumps, stratum weights, and the
// exact SamplePair draw stream under a fixed seed (the strongest equivalence
// the estimators can distinguish).
func snapshotsEqual(t *testing.T, want, got *lsh.Snapshot, seed uint64) {
	t.Helper()
	if got.Version() != want.Version() {
		t.Fatalf("version = %d, want %d", got.Version(), want.Version())
	}
	if got.N() != want.N() || got.K() != want.K() || got.L() != want.L() {
		t.Fatalf("shape (n=%d k=%d l=%d), want (n=%d k=%d l=%d)",
			got.N(), got.K(), got.L(), want.N(), want.K(), want.L())
	}
	if got.Family() != want.Family() {
		t.Fatalf("family %v, want %v", got.Family(), want.Family())
	}
	wd, gd := want.Data(), got.Data()
	for i := range wd {
		if !vecmath.Equal(wd[i], gd[i]) {
			t.Fatalf("vector %d differs", i)
		}
	}
	for ti := 0; ti < want.L(); ti++ {
		wt, gt := want.Table(ti), got.Table(ti)
		if wt.NH() != gt.NH() {
			t.Fatalf("table %d: NH %d, want %d", ti, gt.NH(), wt.NH())
		}
		wb, gb := dumpTable(wt), dumpTable(gt)
		if len(wb) != len(gb) {
			t.Fatalf("table %d: %d buckets, want %d", ti, len(gb), len(wb))
		}
		for bi := range wb {
			if wb[bi].key != gb[bi].key {
				t.Fatalf("table %d bucket %d: key mismatch", ti, bi)
			}
			if len(wb[bi].ids) != len(gb[bi].ids) {
				t.Fatalf("table %d bucket %d: %d ids, want %d", ti, bi, len(gb[bi].ids), len(wb[bi].ids))
			}
			for k := range wb[bi].ids {
				if wb[bi].ids[k] != gb[bi].ids[k] {
					t.Fatalf("table %d bucket %d id %d: %d, want %d",
						ti, bi, k, gb[bi].ids[k], wb[bi].ids[k])
				}
			}
		}
		if wt.NH() == 0 {
			continue
		}
		ra, rb := xrand.New(seed+uint64(ti)), xrand.New(seed+uint64(ti))
		for d := 0; d < 64; d++ {
			wi, wj, wok := wt.SamplePair(ra)
			gi, gj, gok := gt.SamplePair(rb)
			if wi != gi || wj != gj || wok != gok {
				t.Fatalf("table %d draw %d: (%d,%d,%v), want (%d,%d,%v)",
					ti, d, gi, gj, gok, wi, wj, wok)
			}
		}
	}
}

var roundtripConfigs = []struct {
	name   string
	family lsh.Family
	k, ell int
}{
	{"simhash_narrow", lsh.NewSimHash(11), 8, 3}, // 8·1 ≤ 64: uint64 keys
	{"simhash_wide", lsh.NewSimHash(12), 70, 2},  // 70·1 > 64: string keys
	{"minhash_narrow", lsh.NewMinHash(13), 2, 2}, // 2·32 ≤ 64
	{"minhash_wide", lsh.NewMinHash(14), 3, 1},   // 3·32 > 64
}

// TestRoundtrip checks the core durability contract across all key-width ×
// family configurations: a checkpointed store reopens deep-equal to the last
// published version, SamplePair draw-for-draw.
func TestRoundtrip(t *testing.T) {
	for _, cfg := range roundtripConfigs {
		t.Run(cfg.name, func(t *testing.T) {
			fsys := faultfs.NewMem()
			data := testData(40, 21)
			idx, err := lsh.Build(data[:25], cfg.family, cfg.k, cfg.ell)
			if err != nil {
				t.Fatal(err)
			}
			st, err := Create(fsys, "db", idx)
			if err != nil {
				t.Fatal(err)
			}
			for i := 25; i < 40; i++ {
				idx.Insert(data[i])
				if i%4 == 0 {
					idx.Snapshot()
				}
			}
			var want *lsh.Snapshot
			idx.PublishAndThen(func(s *lsh.Snapshot) {
				want = s
				if err := st.Checkpoint(s); err != nil {
					t.Errorf("checkpoint: %v", err)
				}
			})
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			got, st2, err := Open(fsys, "db")
			if err != nil {
				t.Fatal(err)
			}
			snapshotsEqual(t, want, got.Current(), 77)
			if st2.DurableVersion() != want.Version() {
				t.Fatalf("durable = %d, want %d", st2.DurableVersion(), want.Version())
			}
			if err := st2.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestReplayWithoutCheckpoint checks the delta-log path alone: versions
// published after the initial checkpoint recover by replay, and inserts never
// reaching a publish are (by contract) not durable.
func TestReplayWithoutCheckpoint(t *testing.T) {
	fsys := faultfs.NewMem()
	data := testData(30, 31)
	idx, err := lsh.Build(data[:10], lsh.NewSimHash(5), 6, 2)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Create(fsys, "db", idx)
	if err != nil {
		t.Fatal(err)
	}
	var want *lsh.Snapshot
	for i := 10; i < 30; i++ {
		idx.Insert(data[i])
		if i%3 == 0 {
			want = idx.Snapshot()
		}
	}
	// Three inserts (28, 29 plus the unpublished 27) are pending or
	// buffered but never published: the durability unit is the publish.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	got, st2, err := Open(fsys, "db")
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	snapshotsEqual(t, want, got.Current(), 99)
	if got.Pending() != 0 {
		t.Fatalf("recovered index has %d pending", got.Pending())
	}

	// The reopened store keeps extending the same log.
	got.Insert(data[0])
	next := got.Snapshot()
	if st2.Err() != nil {
		t.Fatal(st2.Err())
	}
	if st2.DurableVersion() != next.Version() {
		t.Fatalf("durable = %d, want %d", st2.DurableVersion(), next.Version())
	}
	st2.Close()
	got2, st3, err := Open(fsys, "db")
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	snapshotsEqual(t, next, got2.Current(), 100)
}

// writeRaw replaces a file's bytes directly, bypassing the store.
func writeRaw(t *testing.T, fsys faultfs.FS, name string, data []byte) {
	t.Helper()
	f, err := fsys.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Close()
}

// logSetup builds a store whose delta log holds several published versions,
// returning the filesystem, the log path, and the published snapshots by
// version.
func logSetup(t *testing.T) (*faultfs.MemFS, string, map[uint64]*lsh.Snapshot) {
	t.Helper()
	fsys := faultfs.NewMem()
	data := testData(26, 41)
	idx, err := lsh.Build(data[:10], lsh.NewSimHash(7), 6, 2)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Create(fsys, "db", idx)
	if err != nil {
		t.Fatal(err)
	}
	published := map[uint64]*lsh.Snapshot{1: idx.Current()}
	for i := 10; i < 26; i++ {
		idx.Insert(data[i])
		if i%2 == 1 {
			s := idx.Snapshot()
			published[s.Version()] = s
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return fsys, filepath.Join("db", walName(1)), published
}

// TestTornTailTruncated simulates a torn final record: recovery drops it,
// serves the previous published version, and makes the truncation durable so
// the store keeps working.
func TestTornTailTruncated(t *testing.T) {
	fsys, wpath, published := logSetup(t)
	wdata, err := fsys.ReadFile(wpath)
	if err != nil {
		t.Fatal(err)
	}
	writeRaw(t, fsys, wpath, wdata[:len(wdata)-3])

	got, st, err := Open(fsys, "db")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	v := got.Current().Version()
	want, ok := published[v]
	if !ok {
		t.Fatalf("recovered unknown version %d", v)
	}
	snapshotsEqual(t, want, got.Current(), 55)

	// The torn record was a publish marker (the log ends with one), so
	// exactly one version is lost.
	var max uint64
	for pv := range published {
		if pv > max {
			max = pv
		}
	}
	if v != max-1 {
		t.Fatalf("recovered version %d, want %d", v, max-1)
	}

	// Appending after the truncation must yield a log that reopens cleanly.
	got.Insert(testData(1, 9)[0])
	next := got.Snapshot()
	if st.Err() != nil {
		t.Fatal(st.Err())
	}
	st.Close()
	got2, st2, err := Open(fsys, "db")
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	snapshotsEqual(t, next, got2.Current(), 56)
}

// TestMidFileCorruptionDetected flips a byte in an interior log record:
// recovery must refuse (ErrCorrupt), not resurrect later records against the
// wrong state.
func TestMidFileCorruptionDetected(t *testing.T) {
	fsys, wpath, _ := logSetup(t)
	wdata, err := fsys.ReadFile(wpath)
	if err != nil {
		t.Fatal(err)
	}
	mut := append([]byte(nil), wdata...)
	mut[walHeaderLen+12] ^= 0x01 // inside the first record's payload
	writeRaw(t, fsys, wpath, mut)

	if _, _, err := Open(fsys, "db"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

// TestSnapshotAndManifestCorruptionDetected flips bytes in the checkpoint
// files: both must surface as ErrCorrupt.
func TestSnapshotAndManifestCorruptionDetected(t *testing.T) {
	for _, target := range []string{snapName(1), manifestName} {
		t.Run(target, func(t *testing.T) {
			fsys, _, _ := logSetup(t)
			path := filepath.Join("db", target)
			data, err := fsys.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			mut := append([]byte(nil), data...)
			mut[len(mut)/2] ^= 0x40
			writeRaw(t, fsys, path, mut)
			if _, _, err := Open(fsys, "db"); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("err = %v, want ErrCorrupt", err)
			}
		})
	}
}

// TestOpenErrors pins the typed-error contract of Open and Create.
func TestOpenErrors(t *testing.T) {
	fsys := faultfs.NewMem()
	if _, _, err := Open(fsys, "nope"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("missing dir: err = %v, want ErrNotExist", err)
	}
	if err := fsys.MkdirAll("empty"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(fsys, "empty"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("empty dir: err = %v, want ErrNotExist", err)
	}
	// Store files without a manifest: the manifest was lost, not absent.
	if err := fsys.MkdirAll("half"); err != nil {
		t.Fatal(err)
	}
	writeRaw(t, fsys, filepath.Join("half", snapName(1)), []byte("x"))
	if _, _, err := Open(fsys, "half"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("manifest-less dir: err = %v, want ErrCorrupt", err)
	}

	data := testData(8, 3)
	idx, err := lsh.Build(data, lsh.NewSimHash(1), 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Create(fsys, "db", idx)
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	idx2, _ := lsh.Build(data, lsh.NewSimHash(1), 4, 1)
	if _, err := Create(fsys, "db", idx2); !errors.Is(err, ErrExists) {
		t.Fatalf("create over store: err = %v, want ErrExists", err)
	}
}

// TestStickyErrorRepairedByCheckpoint: after a log failure the store stops
// logging (durable version frozen), and a successful checkpoint repairs it —
// the snapshot supersedes the broken log.
func TestStickyErrorRepairedByCheckpoint(t *testing.T) {
	fsys := faultfs.NewMem()
	data := testData(30, 51)
	idx, err := lsh.Build(data[:10], lsh.NewSimHash(5), 6, 2)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Create(fsys, "db", idx)
	if err != nil {
		t.Fatal(err)
	}
	frozen := st.DurableVersion()

	fsys.SetPlan(faultfs.Plan{Op: 1, Mode: faultfs.ModeErr}) // next log write fails
	idx.Insert(data[10])
	idx.Snapshot()
	if st.Err() == nil {
		t.Fatal("expected sticky error after injected log failure")
	}
	if st.DurableVersion() != frozen {
		t.Fatalf("durable moved to %d while broken", st.DurableVersion())
	}
	// Further writes are ignored, not half-logged.
	for i := 11; i < 20; i++ {
		idx.Insert(data[i])
	}
	idx.Snapshot()
	if st.DurableVersion() != frozen {
		t.Fatalf("durable moved to %d while broken", st.DurableVersion())
	}

	var want *lsh.Snapshot
	idx.PublishAndThen(func(s *lsh.Snapshot) {
		want = s
		if err := st.Checkpoint(s); err != nil {
			t.Errorf("repair checkpoint: %v", err)
		}
	})
	if st.Err() != nil {
		t.Fatalf("sticky error survived checkpoint: %v", st.Err())
	}
	if st.DurableVersion() != want.Version() {
		t.Fatalf("durable = %d, want %d", st.DurableVersion(), want.Version())
	}
	st.Close()

	got, st2, err := Open(fsys, "db")
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	snapshotsEqual(t, want, got.Current(), 61)
}

// TestBackgroundCheckpointRotation: with a tiny threshold every publish
// switches logs and checkpoints in the background. Publishes are durable
// the moment they return, the manifest advances off the publish path,
// Close drains the checkpointer, superseded generations are cleaned up,
// and the store reopens to the exact final state.
func TestBackgroundCheckpointRotation(t *testing.T) {
	fsys := faultfs.NewMem()
	data := testData(24, 71)
	idx, err := lsh.Build(data[:10], lsh.NewSimHash(5), 6, 2)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Create(fsys, "db", idx)
	if err != nil {
		t.Fatal(err)
	}
	st.SetCheckpointBytes(1)
	var want *lsh.Snapshot
	for i := 10; i < 24; i++ {
		idx.Insert(data[i])
		want = idx.Snapshot()
		if st.Err() != nil {
			t.Fatal(st.Err())
		}
		if st.DurableVersion() != want.Version() {
			t.Fatalf("durable = %d, want %d", st.DurableVersion(), want.Version())
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	mdata, err := fsys.ReadFile(filepath.Join("db", manifestName))
	if err != nil {
		t.Fatal(err)
	}
	ckpt, err := decodeManifest(mdata)
	if err != nil {
		t.Fatal(err)
	}
	if ckpt <= 1 {
		t.Fatalf("manifest still at version %d: rotation never committed", ckpt)
	}
	names, err := fsys.ReadDir("db")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		switch filepath.Ext(name) {
		case ".lsnap":
			if name != snapName(ckpt) {
				t.Fatalf("stale snapshot %s with manifest at %d (have %v)", name, ckpt, names)
			}
		case ".log":
			if base, ok := walBaseFromName(name); !ok || base < ckpt {
				t.Fatalf("stale log %s with manifest at %d (have %v)", name, ckpt, names)
			}
		}
	}
	got, st2, err := Open(fsys, "db")
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	snapshotsEqual(t, want, got.Current(), 81)
}

// TestChainRecovery: when checkpoint commits lag behind log switches the
// durable state is a chain — manifest checkpoint, sealed logs, live log —
// and Open replays it link by link. The chain is built deterministically
// with hand-driven switches (the background path performs the identical
// switch; its commit timing is covered by the rotation test and the crash
// sweep).
func TestChainRecovery(t *testing.T) {
	fsys := faultfs.NewMem()
	data := testData(30, 111)
	idx, err := lsh.Build(data[:8], lsh.NewSimHash(9), 6, 2)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Create(fsys, "db", idx)
	if err != nil {
		t.Fatal(err)
	}
	st.SetCheckpointBytes(0) // no automatic rotation: switch by hand
	var want *lsh.Snapshot
	insertPublish := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			idx.Insert(data[i])
		}
		want = idx.Snapshot()
	}
	switchLog := func() {
		st.mu.Lock()
		err := st.switchLogLocked(want.Version())
		st.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
	}
	insertPublish(8, 14)
	switchLog()
	insertPublish(14, 20)
	switchLog()
	insertPublish(20, 30)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Three links on disk, manifest still at the create checkpoint.
	for _, name := range []string{walName(1), walName(2), walName(3)} {
		if _, err := fsys.ReadFile(filepath.Join("db", name)); err != nil {
			t.Fatalf("chain link %s: %v", name, err)
		}
	}
	got, st2, err := Open(fsys, "db")
	if err != nil {
		t.Fatal(err)
	}
	snapshotsEqual(t, want, got.Current(), 123)
	if st2.RetainedBytes() <= 0 {
		t.Errorf("RetainedBytes = %d after replaying a chain, want > 0", st2.RetainedBytes())
	}
	// The reopened store appends to the live tail and survives another
	// recovery.
	got.Insert(data[0])
	want = got.Snapshot()
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	got3, st3, err := Open(fsys, "db")
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	snapshotsEqual(t, want, got3.Current(), 129)
}

// TestChainDamageCorrupt: sealed links were fully fsynced before their
// successor existed, so losing their tail or orphaning a successor is
// damage and must refuse with ErrCorrupt, never silently truncate.
func TestChainDamageCorrupt(t *testing.T) {
	build := func(t *testing.T) faultfs.FS {
		fsys := faultfs.NewMem()
		data := testData(24, 141)
		idx, err := lsh.Build(data[:8], lsh.NewSimHash(9), 6, 2)
		if err != nil {
			t.Fatal(err)
		}
		st, err := Create(fsys, "db", idx)
		if err != nil {
			t.Fatal(err)
		}
		st.SetCheckpointBytes(0)
		for i := 8; i < 14; i++ {
			idx.Insert(data[i])
			idx.Snapshot()
		}
		st.mu.Lock()
		err = st.switchLogLocked(idx.Current().Version())
		st.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		for i := 14; i < 20; i++ {
			idx.Insert(data[i])
			idx.Snapshot()
		}
		st.Close()
		return fsys
	}

	t.Run("sealed link torn tail", func(t *testing.T) {
		fsys := build(t)
		// The sealed wal-1 ends with the publish marker of the switch
		// version; shaving bytes off it makes the valid prefix stop at an
		// earlier publish while the successor still exists.
		path := filepath.Join("db", walName(1))
		wdata, err := fsys.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		writeRaw(t, fsys, path, wdata[:len(wdata)-3])
		_, _, err = Open(fsys, "db")
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Open after sealed-link truncation: %v, want ErrCorrupt", err)
		}
	})

	t.Run("orphaned successor", func(t *testing.T) {
		fsys := build(t)
		// Rewrite the sealed link so only its first publish survives: the
		// replay then ends before the switch version, and wal-<switch>
		// becomes unreachable — fsynced records would be lost.
		path := filepath.Join("db", walName(1))
		wdata, err := fsys.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		end := walHeaderLen
		for end < len(wdata) {
			plen := int(binary.LittleEndian.Uint32(wdata[end:]))
			kind := wdata[end+8]
			end += 8 + plen
			if kind == recPublish {
				break
			}
		}
		writeRaw(t, fsys, path, wdata[:end])
		_, _, err = Open(fsys, "db")
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Open with orphaned chain link: %v, want ErrCorrupt", err)
		}
	})
}

// TestGroupRoundtrip: a sharded store reopens as a group that routes and
// samples identically, every shard at its last durable version.
func TestGroupRoundtrip(t *testing.T) {
	fsys := faultfs.NewMem()
	data := testData(60, 91)
	g, err := lsh.NewShardGroup(data[:40], lsh.NewSimHash(17), 6, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	stores, err := CreateGroup(fsys, "grp", g)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range data[40:] {
		g.Insert(v)
	}
	g.Capture() // publish every shard
	want := make([]*lsh.Snapshot, g.S())
	for s := 0; s < g.S(); s++ {
		sh, st := g.Shard(s), stores[s]
		sh.PublishAndThen(func(snap *lsh.Snapshot) {
			want[s] = snap
			if err := st.Checkpoint(snap); err != nil {
				t.Errorf("shard %d checkpoint: %v", s, err)
			}
		})
	}
	for _, st := range stores {
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}

	g2, stores2, _, err := OpenGroup(fsys, "grp")
	if err != nil {
		t.Fatal(err)
	}
	if g2.S() != g.S() || g2.K() != g.K() || g2.L() != g.L() || g2.Family() != g.Family() {
		t.Fatalf("group shape mismatch")
	}
	for s := 0; s < g.S(); s++ {
		snapshotsEqual(t, want[s], g2.Shard(s).Current(), 90+uint64(s))
		if got := stores2[s].DurableVersion(); got != want[s].Version() {
			t.Fatalf("shard %d durable version %d, want %d", s, got, want[s].Version())
		}
	}
	// Routing must agree vector-for-vector, or reopened inserts would land
	// on the wrong shard's store.
	for _, v := range data {
		if g.Route(v) != g2.Route(v) {
			t.Fatal("routing diverged after reopen")
		}
	}
	for _, st := range stores2 {
		st.Close()
	}

	if _, _, _, err := OpenGroup(fsys, "nope"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("missing group: err = %v, want ErrNotExist", err)
	}
	if _, err := CreateGroup(fsys, "grp", g); !errors.Is(err, ErrExists) {
		t.Fatalf("create over group: err = %v, want ErrExists", err)
	}
}

// TestGroupEmptyShard: a shard the routing left empty must still roundtrip
// (zero-vector snapshot encoding).
func TestGroupEmptyShard(t *testing.T) {
	fsys := faultfs.NewMem()
	// A single vector can populate at most one of 4 shards.
	g, err := lsh.NewShardGroup(testData(1, 13), lsh.NewSimHash(19), 4, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	stores, err := CreateGroup(fsys, "grp", g)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range stores {
		st.Close()
	}
	g2, stores2, _, err := OpenGroup(fsys, "grp")
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < g.S(); s++ {
		snapshotsEqual(t, g.Shard(s).Current(), g2.Shard(s).Current(), 120+uint64(s))
	}
	for _, st := range stores2 {
		st.Close()
	}
}

// TestCrossRoundtrip: a two-sided store reopens as a pair of groups whose
// shards recover to a componentwise-consistent version-vector pair, deep-
// equal to the last durable publish of each.
func TestCrossRoundtrip(t *testing.T) {
	fsys := faultfs.NewMem()
	data := testData(80, 151)
	left, err := lsh.NewShardGroup(data[:20], lsh.NewSimHash(29), 6, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	right, err := lsh.NewShardGroup(data[40:60], lsh.NewSimHash(29), 6, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	ls, rs, err := CreateCross(fsys, "xj", left, right)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range data[20:40] {
		left.Insert(v)
	}
	for _, v := range data[60:] {
		right.Insert(v)
	}
	left.Capture()
	right.Capture()
	wantL := make([]*lsh.Snapshot, left.S())
	wantR := make([]*lsh.Snapshot, right.S())
	for s := 0; s < left.S(); s++ {
		s := s
		left.Shard(s).PublishAndThen(func(snap *lsh.Snapshot) {
			wantL[s] = snap
			if err := ls[s].Checkpoint(snap); err != nil {
				t.Errorf("left shard %d checkpoint: %v", s, err)
			}
		})
		right.Shard(s).PublishAndThen(func(snap *lsh.Snapshot) {
			wantR[s] = snap
			if err := rs[s].Checkpoint(snap); err != nil {
				t.Errorf("right shard %d checkpoint: %v", s, err)
			}
		})
	}
	meta := CrossMeta{Family: mustSpec(t, left.Family()), K: left.K(), Shards: left.S()}
	for _, st := range append(ls, rs...) {
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}

	left2, right2, ls2, rs2, meta2, err := OpenCross(fsys, "xj")
	if err != nil {
		t.Fatal(err)
	}
	if meta2.Family != meta.Family || meta2.K != meta.K || meta2.Shards != meta.Shards {
		t.Fatalf("cross meta = %+v, want %+v", meta2, meta)
	}
	for s := 0; s < left.S(); s++ {
		snapshotsEqual(t, wantL[s], left2.Shard(s).Current(), 150+uint64(s))
		snapshotsEqual(t, wantR[s], right2.Shard(s).Current(), 160+uint64(s))
		if gl, gr := ls2[s].DurableVersion(), rs2[s].DurableVersion(); gl != wantL[s].Version() || gr != wantR[s].Version() {
			t.Fatalf("recovered versions (%d,%d), want (%d,%d)", gl, gr, wantL[s].Version(), wantR[s].Version())
		}
	}
	// Routing must agree side by side after reopen.
	for _, v := range data {
		if left.Route(v) != left2.Route(v) || right.Route(v) != right2.Route(v) {
			t.Fatal("routing diverged after reopen")
		}
	}
	for _, st := range append(ls2, rs2...) {
		st.Close()
	}

	if _, _, _, _, _, err := OpenCross(fsys, "nope"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("missing cross store: err = %v, want ErrNotExist", err)
	}
	if _, _, err := CreateCross(fsys, "xj", left, right); !errors.Is(err, ErrExists) {
		t.Fatalf("create over cross store: err = %v, want ErrExists", err)
	}
	// Side stores without the CROSS commit point mean the manifest was
	// lost.
	if err := fsys.Remove(filepath.Join("xj", crossName)); err != nil {
		t.Fatal(err)
	}
	if _, _, _, _, _, err := OpenCross(fsys, "xj"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("cross store without manifest: err = %v, want ErrCorrupt", err)
	}
}

// Format-1 GROUP and CROSS manifests, as stores written before manifests
// recorded shape only committed them: the version words follow the shard
// count. Stores carrying them must keep opening.
var (
	// simhash seed 17, k = 6, ℓ = 2, three shards, versions 2, 3, 4.
	format1Group = mustHex("4c5348475250310a010773696d686173681100000000000000010602030200000000000000030000000000000004000000000000000f107403")
	// simhash seed 17, k = 6, ℓ = 2, one shard, version 2.
	format1OneShardGroup = mustHex("4c5348475250310a010773696d6861736811000000000000000106020102000000000000005eb6dc22")
	// simhash seed 29, k = 6, two shards, versions (2, 5) and (3, 1).
	format1Cross = mustHex("4c5348584a4e310a010773696d686173681d00000000000000010602020000000000000005000000000000000300000000000000010000000000000008c32584")
)

func mustHex(s string) []byte {
	b, err := hex.DecodeString(s)
	if err != nil {
		panic(err)
	}
	return b
}

// TestManifestFormat1 decodes the format-1 manifests to their shapes and
// opens stores committed with them: a sharded store, a cross store, and the
// earlier one-shard group layout (GROUP plus a plain store in shard-0000).
func TestManifestFormat1(t *testing.T) {
	simhash := func(seed uint64) lsh.FamilySpec { return lsh.FamilySpec{Name: "simhash", Seed: seed, Bits: 1} }
	gm, err := decodeGroupManifest(format1Group)
	if want := (GroupMeta{Family: simhash(17), K: 6, Ell: 2, Shards: 3}); err != nil || gm != want {
		t.Fatalf("format-1 group manifest decodes to %+v, %v; want %+v", gm, err, want)
	}
	gm, err = decodeGroupManifest(format1OneShardGroup)
	if want := (GroupMeta{Family: simhash(17), K: 6, Ell: 2, Shards: 1}); err != nil || gm != want {
		t.Fatalf("format-1 one-shard group manifest decodes to %+v, %v; want %+v", gm, err, want)
	}
	xm, err := decodeCrossManifest(format1Cross)
	if want := (CrossMeta{Family: simhash(29), K: 6, Shards: 2}); err != nil || xm != want {
		t.Fatalf("format-1 cross manifest decodes to %+v, %v; want %+v", xm, err, want)
	}

	fsys := faultfs.NewMem()
	data := testData(60, 93)
	closeAll := func(stores []*Store) {
		for _, st := range stores {
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	requireGroup := func(want, got *lsh.ShardGroup, seed uint64) {
		t.Helper()
		if got.S() != want.S() || got.K() != want.K() || got.L() != want.L() || got.Family() != want.Family() {
			t.Fatalf("group shape mismatch")
		}
		for s := 0; s < want.S(); s++ {
			snapshotsEqual(t, want.Shard(s).Current(), got.Shard(s).Current(), seed+uint64(s))
		}
	}

	g, err := lsh.NewShardGroup(data[:40], lsh.NewSimHash(17), 6, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	stores, err := CreateGroup(fsys, "grp", g)
	if err != nil {
		t.Fatal(err)
	}
	closeAll(stores)
	writeRaw(t, fsys, filepath.Join("grp", groupName), format1Group)
	g2, stores, _, err := OpenGroup(fsys, "grp")
	if err != nil {
		t.Fatalf("OpenGroup under a format-1 manifest: %v", err)
	}
	requireGroup(g, g2, 210)
	closeAll(stores)

	left, err := lsh.NewShardGroup(data[:20], lsh.NewSimHash(29), 6, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	right, err := lsh.NewShardGroup(data[20:40], lsh.NewSimHash(29), 6, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	ls, rs, err := CreateCross(fsys, "xj", left, right)
	if err != nil {
		t.Fatal(err)
	}
	closeAll(append(ls, rs...))
	writeRaw(t, fsys, filepath.Join("xj", crossName), format1Cross)
	left2, right2, ls, rs, _, err := OpenCross(fsys, "xj")
	if err != nil {
		t.Fatalf("OpenCross under a format-1 manifest: %v", err)
	}
	requireGroup(left, left2, 220)
	requireGroup(right, right2, 230)
	closeAll(append(ls, rs...))

	idx, err := lsh.Build(data[40:], lsh.NewSimHash(17), 6, 2)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Create(fsys, ShardDir("one", 0), idx)
	if err != nil {
		t.Fatal(err)
	}
	closeAll([]*Store{st})
	writeRaw(t, fsys, filepath.Join("one", groupName), format1OneShardGroup)
	g1, stores, meta, err := OpenGroup(fsys, "one")
	if err != nil {
		t.Fatalf("OpenGroup of the one-shard group layout: %v", err)
	}
	if meta.Shards != 1 {
		t.Fatalf("one-shard group opened with %d shards", meta.Shards)
	}
	snapshotsEqual(t, idx.Current(), g1.Shard(0).Current(), 240)
	closeAll(stores)
}

// TestProbeLayouts: a plain store opens as the one-shard group, its meta
// taken from the recovered index; two commit points in one directory, or
// sub-stores under none, are corrupt; and every creator refuses a directory
// holding any layout.
func TestProbeLayouts(t *testing.T) {
	fsys := faultfs.NewMem()
	data := testData(30, 97)
	idx, err := lsh.Build(data, lsh.NewSimHash(31), 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Create(fsys, "plain", idx)
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	g, stores, meta, err := OpenGroup(fsys, "plain")
	if err != nil {
		t.Fatal(err)
	}
	if want := (GroupMeta{Family: mustSpec(t, idx.Family()), K: 5, Ell: 2, Shards: 1}); meta != want {
		t.Fatalf("plain store opened with meta %+v, want %+v", meta, want)
	}
	snapshotsEqual(t, idx.Current(), g.Shard(0).Current(), 250)
	stores[0].Close()

	one, err := lsh.NewShardGroup(data, lsh.NewSimHash(31), 5, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	two, err := lsh.NewShardGroup(data, lsh.NewSimHash(31), 5, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CreateGroup(fsys, "plain", two); !errors.Is(err, ErrExists) {
		t.Fatalf("CreateGroup over a plain store: %v, want ErrExists", err)
	}
	if _, _, err := CreateCross(fsys, "plain", two, two); !errors.Is(err, ErrExists) {
		t.Fatalf("CreateCross over a plain store: %v, want ErrExists", err)
	}
	if _, _, _, _, _, err := OpenCross(fsys, "plain"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("OpenCross of a plain store: %v, want ErrNotExist", err)
	}
	stores, err = CreateGroup(fsys, "grp", two)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range stores {
		st.Close()
	}
	if _, err := CreateGroup(fsys, "grp", one); !errors.Is(err, ErrExists) {
		t.Fatalf("one-shard CreateGroup over a sharded store: %v, want ErrExists", err)
	}
	if _, _, err := Open(fsys, "grp"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("Open of a sharded store: %v, want ErrNotExist", err)
	}

	writeRaw(t, fsys, filepath.Join("grp", manifestName), encodeManifest(1))
	if _, _, _, err := OpenGroup(fsys, "grp"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("two commit points: %v, want ErrCorrupt", err)
	}
	if err := fsys.Remove(filepath.Join("grp", manifestName)); err != nil {
		t.Fatal(err)
	}
	if err := fsys.Remove(filepath.Join("grp", groupName)); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := OpenGroup(fsys, "grp"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("shard stores without GROUP: %v, want ErrCorrupt", err)
	}
}

// countingFS wraps a filesystem and counts the file handles it holds open.
type countingFS struct {
	faultfs.FS
	open atomic.Int64
}

func (c *countingFS) Create(name string) (faultfs.File, error) { return c.track(c.FS.Create(name)) }
func (c *countingFS) Append(name string) (faultfs.File, error) { return c.track(c.FS.Append(name)) }

func (c *countingFS) track(f faultfs.File, err error) (faultfs.File, error) {
	if err != nil {
		return nil, err
	}
	c.open.Add(1)
	return &countedFile{File: f, fs: c}, nil
}

type countedFile struct {
	faultfs.File
	fs   *countingFS
	once sync.Once
}

func (f *countedFile) Close() error {
	f.once.Do(func() { f.fs.open.Add(-1) })
	return f.File.Close()
}

// TestFailedOpenReleasesShards: a group or cross open that fails on one
// shard releases the delta logs of every shard it had already recovered.
func TestFailedOpenReleasesShards(t *testing.T) {
	mem := faultfs.NewMem()
	data := testData(60, 99)
	g, err := lsh.NewShardGroup(data[:30], lsh.NewSimHash(37), 6, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	stores, err := CreateGroup(mem, "grp", g)
	if err != nil {
		t.Fatal(err)
	}
	left, err := lsh.NewShardGroup(data[30:45], lsh.NewSimHash(37), 6, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	right, err := lsh.NewShardGroup(data[45:], lsh.NewSimHash(37), 6, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	ls, rs, err := CreateCross(mem, "xj", left, right)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range append(append(stores, ls...), rs...) {
		st.Close()
	}
	garbage := []byte("not a manifest")
	writeRaw(t, mem, filepath.Join(ShardDir("grp", 2), manifestName), garbage)
	writeRaw(t, mem, filepath.Join(ShardDir(CrossSideDir("xj", false), 2), manifestName), garbage)

	fsys := &countingFS{FS: mem}
	if _, _, _, err := OpenGroup(fsys, "grp"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("OpenGroup with a corrupt shard: %v, want ErrCorrupt", err)
	}
	if n := fsys.open.Load(); n != 0 {
		t.Fatalf("failed OpenGroup left %d file handles open", n)
	}
	if _, _, _, _, _, err := OpenCross(fsys, "xj"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("OpenCross with a corrupt shard: %v, want ErrCorrupt", err)
	}
	if n := fsys.open.Load(); n != 0 {
		t.Fatalf("failed OpenCross left %d file handles open", n)
	}
}

func mustSpec(t *testing.T, f lsh.Family) lsh.FamilySpec {
	t.Helper()
	sp, err := lsh.SpecOf(f)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// TestStoreOnRealFS exercises the faultfs.OS backend end to end in a temp
// directory: the same roundtrip contract must hold on a real filesystem.
func TestStoreOnRealFS(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	data := testData(30, 101)
	idx, err := lsh.Build(data[:20], lsh.NewSimHash(23), 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Create(faultfs.OS{}, dir, idx)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range data[20:] {
		idx.Insert(v)
	}
	var want *lsh.Snapshot
	idx.PublishAndThen(func(s *lsh.Snapshot) {
		want = s
		if err := st.Checkpoint(s); err != nil {
			t.Errorf("checkpoint: %v", err)
		}
	})
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	got, st2, err := Open(faultfs.OS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	snapshotsEqual(t, want, got.Current(), 111)
}
