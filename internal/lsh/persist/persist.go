// Package persist gives LSH indexes a crash-safe on-disk home. The design
// follows the snapshot discipline of the in-memory layer: immutable
// published versions are the durability unit.
//
// A plain store — the durable home of one index — holds three kinds of
// files:
//
//	MANIFEST        names the latest durable checkpoint version v
//	snap-<v>.lsnap  the checkpointed snapshot (format.go)
//	wal-<v>.log     a delta log whose records extend version v (wal.go)
//
// A directory holds one store of one layout, named by its commit point — the
// file its creator writes last: MANIFEST for a plain store, GROUP for a
// sharded store (one plain store per shard under shard-NNNN), CROSS for a
// cross join (one self-join store per side, cross.go). A one-shard group is
// a plain store. probe reads the commit points; creators refuse a directory
// holding any layout (ErrExists), and openers of another layout report
// ErrNotExist.
//
// Checkpoints are written cold-path atomic: snapshot to a temp file, fsync,
// rename, directory fsync, then the manifest the same way, then a fresh
// empty delta log — so a crash at any byte leaves either the old checkpoint
// chain or the new one, never a mix. Between checkpoints, the Store hangs
// off the index's write hook (lsh.WriteHook): inserts append records to an
// in-memory buffer, and each publish appends a marker, writes the buffer to
// the log and fsyncs it. Recovery (Open) is therefore pure replay: load
// snap-<v>, re-insert the log's records, and cut versions at the markers —
// which reproduces the exact merge sequence of the original process, so the
// reopened index is deep-equal to the last durable publish, SamplePair
// draw-for-draw included.
//
// Checkpoint rotation runs off the publish path. When RetainedBytes — the
// record bytes a recovery would replay — outgrows the threshold, the
// publishing goroutine only switches logs: it seals the current log (whose
// final record is the publish marker of version v), starts wal-<v>, and
// hands the published snapshot to a per-store checkpointer goroutine that
// encodes and commits snap-<v> + MANIFEST in the background. Until that
// commit lands, the durable state is a chain — checkpoint, sealed log(s),
// live log — and Open replays the chain link by link: a sealed log ends
// with the publish marker of the next link's base. Publish latency therefore
// stays flat at "append + fsync" no matter how large snapshots grow.
//
// Failure handling is sticky: the first log write or sync error disables
// further appends (a half-written record must never be followed by a valid
// one, or recovery would see mid-file corruption instead of a torn tail).
// A later successful checkpoint repairs the store — the snapshot supersedes
// the broken log — which is what Close attempts. The crash-consistency
// property test (persist_test.go) drives every injection point of
// internal/faultfs through this machinery.
package persist

import (
	"errors"
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"lshjoin/internal/faultfs"
	"lshjoin/internal/lsh"
	"lshjoin/internal/vecmath"
)

var (
	// ErrCorrupt reports a store whose on-disk state fails validation in a
	// way recovery must not paper over: checksum mismatches away from the
	// log tail, impossible structure, version skew between files.
	ErrCorrupt = errors.New("persist: corrupt store")
	// ErrExists reports a Create into a directory that already holds a store.
	ErrExists = errors.New("persist: store already exists")
	// ErrNotExist reports an Open of a directory holding no store.
	ErrNotExist = errors.New("persist: store does not exist")
)

const (
	manifestName = "MANIFEST"
	groupName    = "GROUP"
	crossName    = "CROSS"

	// DefaultCheckpointBytes caps delta-log growth: once a publish leaves
	// more than this many record bytes beyond the manifest checkpoint
	// (RetainedBytes), the store switches logs and checkpoints in the
	// background, bounding both recovery replay time and disk usage.
	DefaultCheckpointBytes = 4 << 20

	// maxBatchRecVectors splits large InsertBatch calls across several log
	// records, keeping any single record's length well inside uint32.
	maxBatchRecVectors = 1 << 16
)

func snapName(v uint64) string { return fmt.Sprintf("snap-%016x.lsnap", v) }
func walName(v uint64) string  { return fmt.Sprintf("wal-%016x.log", v) }

// walBaseFromName inverts walName, so cleanup can tell chain links (base at
// or after the manifest checkpoint) from superseded generations.
func walBaseFromName(name string) (uint64, bool) {
	const pre, suf = "wal-", ".log"
	if len(name) != len(pre)+16+len(suf) ||
		!strings.HasPrefix(name, pre) || !strings.HasSuffix(name, suf) {
		return 0, false
	}
	v, err := strconv.ParseUint(name[len(pre):len(pre)+16], 16, 64)
	return v, err == nil
}

// Store is the durable backing of one lsh.Index. It implements
// lsh.WriteHook; install it with idx.SetWriteHook (Create and Open do).
// Hook callbacks run under the index's writer lock, so the log order always
// matches the id-assignment order.
//
// Insert cannot return errors through the public API, so log failures are
// sticky and surface at Close (or Err): after one, the store stops logging
// and the durable state freezes at the last version that reached disk,
// until a successful checkpoint repairs it.
type Store struct {
	fs  faultfs.FS
	dir string

	// ckptMu serializes checkpoint commits — the inline Checkpoint and the
	// background checkpointer both write snap + MANIFEST and clean up under
	// it, so a lagging background commit can never regress the manifest
	// past a newer inline checkpoint. Lock order: ckptMu before mu.
	ckptMu sync.Mutex

	mu              sync.Mutex
	wal             faultfs.File
	walBase         uint64 // version the current (live) log extends
	walLen          int    // bytes written to the live log, header included
	durable         uint64 // last version known durable
	ckptVer         uint64 // version the MANIFEST names
	retained        int64  // record bytes a recovery would replay (all chain links)
	buf             []byte // records encoded but not yet written
	err             error  // sticky first failure; cleared by inline checkpoint
	closed          bool
	checkpointBytes int
	rotating        bool // a background checkpoint is signaled or running
	ckptC           chan *lsh.Snapshot
	ckptDone        chan struct{}
}

// Create initializes a fresh plain store in dir from the index's current
// state (publishing any pending inserts) and installs the write hook. It
// must complete before the index is shared with concurrent writers.
// Creating over an existing store of any layout reports ErrExists.
func Create(fsys faultfs.FS, dir string, idx *lsh.Index) (*Store, error) {
	if err := vacant(fsys, dir); err != nil {
		return nil, err
	}
	st := &Store{fs: fsys, dir: dir, checkpointBytes: DefaultCheckpointBytes}
	st.ckptMu.Lock()
	st.mu.Lock()
	err := st.checkpointLocked(idx.Snapshot())
	st.mu.Unlock()
	st.ckptMu.Unlock()
	if err != nil {
		return nil, err
	}
	idx.SetWriteHook(st)
	return st, nil
}

// Open recovers the plain store in dir: the manifest's checkpoint is
// loaded, the delta log's valid prefix replayed (a torn tail is truncated,
// never served), and the write hook installed on the recovered index. It
// must complete before the index is shared. A directory without a plain
// store reports ErrNotExist; one whose contents fail validation reports
// ErrCorrupt.
func Open(fsys faultfs.FS, dir string) (*lsh.Index, *Store, error) {
	l, mdata, err := probe(fsys, dir)
	if err != nil {
		return nil, nil, err
	}
	if l != plainLayout {
		return nil, nil, notExist(dir, l)
	}
	return openPlain(fsys, dir, mdata)
}

// openPlain recovers the plain store in dir whose MANIFEST holds mdata.
func openPlain(fsys faultfs.FS, dir string, mdata []byte) (*lsh.Index, *Store, error) {
	v, err := decodeManifest(mdata)
	if err != nil {
		return nil, nil, err
	}
	blob, err := fsys.ReadFile(filepath.Join(dir, snapName(v)))
	if err != nil {
		return nil, nil, corrupt("persist: manifest names version %d but its snapshot is unreadable (%v)", v, err)
	}
	idx, err := decodeSnapshot(blob)
	if err != nil {
		return nil, nil, err
	}
	if got := idx.Current().Version(); got != v {
		return nil, nil, corrupt("persist: snapshot file carries version %d, manifest %d", got, v)
	}

	st := &Store{
		fs: fsys, dir: dir,
		walBase: v, durable: v, ckptVer: v,
		checkpointBytes: DefaultCheckpointBytes,
	}
	// Replay the log chain. A background checkpoint that had not committed
	// by the crash leaves the manifest one or more log switches behind: the
	// log at the manifest version is sealed (its final record is the
	// publish marker of the next link's base) and the chain continues in
	// wal-<that version>, ending at the live log.
	for base := v; ; {
		wpath := filepath.Join(dir, walName(base))
		wdata, err := fsys.ReadFile(wpath)
		switch {
		case faultfs.IsNotExist(err):
			wdata = nil // crashed between manifest/switch and log creation: empty log
		case err != nil:
			return nil, nil, fmt.Errorf("persist: open %s: %w", dir, err)
		}
		recs, validLen, err := scanWAL(wdata, base)
		if err != nil {
			return nil, nil, err
		}
		if err := replay(idx, st, recs); err != nil {
			return nil, nil, err
		}
		if validLen > walHeaderLen {
			st.retained += int64(validLen - walHeaderLen)
		}
		torn := validLen < len(wdata) || len(wdata) < walHeaderLen
		if next := st.durable; next != base {
			if _, err := fsys.ReadFile(filepath.Join(dir, walName(next))); err == nil {
				// A successor exists, so this log was sealed by a log
				// switch and never appended to again; every byte of it was
				// fsynced. A torn tail here is damage, not a crash.
				if torn {
					return nil, nil, corrupt("persist: sealed delta log %s has a torn tail", walName(base))
				}
				base = next
				continue
			} else if !faultfs.IsNotExist(err) {
				return nil, nil, fmt.Errorf("persist: open %s: %w", dir, err)
			}
		}
		// Live tail of the chain. Make the truncation durable before
		// appending anything: rewrite the valid prefix (or a fresh header)
		// atomically, then reopen for append.
		if torn {
			prefix := wdata[:validLen]
			if validLen == 0 {
				prefix = appendWalHeader(nil, base)
			}
			if err := st.writeFileSync(walName(base), prefix); err != nil {
				return nil, nil, err
			}
			st.walLen = len(prefix)
		} else {
			st.walLen = validLen
		}
		st.walBase = base
		if st.wal, err = fsys.Append(wpath); err != nil {
			return nil, nil, fmt.Errorf("persist: open %s: %w", dir, err)
		}
		break
	}
	// Every log switch seals its predecessor with a publish marker, so a
	// log based past the recovered version means the replayable prefix of
	// some sealed link lost fsynced records — damage, not a crash.
	names, err := fsys.ReadDir(dir)
	if err != nil {
		st.wal.Close()
		return nil, nil, fmt.Errorf("persist: open %s: %w", dir, err)
	}
	for _, name := range names {
		if b, ok := walBaseFromName(name); ok && b > st.durable {
			st.wal.Close()
			return nil, nil, corrupt("persist: delta log %s extends past recovered version %d", name, st.durable)
		}
	}
	idx.SetWriteHook(st)
	return idx, st, nil
}

// replay applies the decoded delta-log records to the checkpointed index,
// verifying that ids and versions land exactly where the log says they did
// — any disagreement means the log and snapshot are not from the same
// history.
func replay(idx *lsh.Index, st *Store, recs []walRec) error {
	for _, rec := range recs {
		switch rec.kind {
		case recInsert:
			if id := idx.Insert(rec.vecs[0]); id != rec.id {
				return corrupt("persist: replayed insert got id %d, log says %d", id, rec.id)
			}
		case recBatch:
			if first := idx.InsertBatch(rec.vecs); first != rec.id {
				return corrupt("persist: replayed batch got first id %d, log says %d", first, rec.id)
			}
		case recPublish:
			s := idx.Snapshot()
			if s.Version() != rec.version {
				return corrupt("persist: replayed publish got version %d, log says %d", s.Version(), rec.version)
			}
			st.durable = rec.version
		}
	}
	return nil
}

// layout is what a directory holds, named by its commit point.
type layout int

const (
	noLayout layout = iota
	plainLayout
	groupLayout
	crossLayout
)

// commitNames maps each layout to its commit point.
var commitNames = [...]string{plainLayout: manifestName, groupLayout: groupName, crossLayout: crossName}

func (l layout) String() string {
	return [...]string{"no", "plain", "sharded", "cross-join"}[l]
}

// probe reports the layout dir holds and its commit point's bytes. A
// missing or empty directory holds noLayout. More than one commit point is
// ErrCorrupt, and so are store files or sub-stores under none — the commit
// point was lost (temp files of an interrupted create don't count).
func probe(fsys faultfs.FS, dir string) (layout, []byte, error) {
	found, data := noLayout, []byte(nil)
	for l := plainLayout; l <= crossLayout; l++ {
		b, err := fsys.ReadFile(filepath.Join(dir, commitNames[l]))
		switch {
		case err == nil && found != noLayout:
			return noLayout, nil, corrupt("persist: %s holds both %s and %s", dir, commitNames[found], commitNames[l])
		case err == nil:
			found, data = l, b
		case !faultfs.IsNotExist(err):
			return noLayout, nil, fmt.Errorf("persist: open %s: %w", dir, err)
		}
	}
	if found != noLayout {
		return found, data, nil
	}
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return noLayout, nil, nil
	}
	for _, name := range names {
		if ext := filepath.Ext(name); ext == ".lsnap" || ext == ".log" {
			return noLayout, nil, corrupt("persist: %s has store files but no manifest", dir)
		}
	}
	// Sub-stores are probed by name: the fault filesystem lists files only.
	for _, sub := range []string{shardDirName(0), crossLeftDir, crossRightDir} {
		if l, _, err := probe(fsys, filepath.Join(dir, sub)); l != noLayout || errors.Is(err, ErrCorrupt) {
			return noLayout, nil, corrupt("persist: %s has sub-stores but no manifest", dir)
		}
	}
	return noLayout, nil, nil
}

// vacant makes dir and checks that it holds no store of any layout.
func vacant(fsys faultfs.FS, dir string) error {
	if err := fsys.MkdirAll(dir); err != nil {
		return fmt.Errorf("persist: create %s: %w", dir, err)
	}
	l, _, err := probe(fsys, dir)
	if err == nil && l != noLayout {
		err = fmt.Errorf("persist: %s holds a %s store: %w", dir, l, ErrExists)
	}
	return err
}

// notExist reports that dir holds no store of the layout an opener wants,
// naming the layout it does hold.
func notExist(dir string, got layout) error {
	if got == noLayout {
		return fmt.Errorf("persist: %s: %w", dir, ErrNotExist)
	}
	return fmt.Errorf("persist: %s holds a %s store: %w", dir, got, ErrNotExist)
}

// closeAll releases stores on an error path.
func closeAll(stores ...*Store) {
	for _, st := range stores {
		st.Close()
	}
}

// Err returns the sticky failure, if any. While non-nil, inserts are not
// being logged and the durable state is frozen at DurableVersion.
func (st *Store) Err() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.err
}

// DurableVersion returns the last snapshot version known to be durable:
// every publish up to it has either been checkpointed or fsynced to the
// delta log.
func (st *Store) DurableVersion() uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.durable
}

// RetainedBytes reports the delta-log record bytes a recovery would have to
// replay on top of the manifest checkpoint — every chain link counted, not
// just the live log. It is the rotation pressure: once it passes the
// checkpoint threshold, the next publish switches logs and checkpoints in
// the background.
func (st *Store) RetainedBytes() int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.retained
}

// SetCheckpointBytes overrides DefaultCheckpointBytes (0 disables background
// checkpointing).
func (st *Store) SetCheckpointBytes(n int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.checkpointBytes = n
}

// CheckpointBytes returns the rotation threshold currently in force.
func (st *Store) CheckpointBytes() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.checkpointBytes
}

// OnInsert implements lsh.WriteHook.
func (st *Store) OnInsert(id int, v vecmath.Vector) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.err != nil || st.closed {
		return
	}
	st.buf = appendInsertRec(st.buf, id, v)
}

// OnInsertBatch implements lsh.WriteHook.
func (st *Store) OnInsertBatch(first int, vs []vecmath.Vector) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.err != nil || st.closed {
		return
	}
	for len(vs) > maxBatchRecVectors {
		st.buf = appendBatchRec(st.buf, first, vs[:maxBatchRecVectors])
		first += maxBatchRecVectors
		vs = vs[maxBatchRecVectors:]
	}
	st.buf = appendBatchRec(st.buf, first, vs)
}

// OnPublish implements lsh.WriteHook: the publish marker is appended and
// the whole buffer flushed + fsynced, making the new version durable. When
// the retained record bytes have outgrown the checkpoint threshold, the
// store switches to a fresh log (cheap: create + header + fsync) and hands
// the snapshot to the background checkpointer — the expensive snapshot
// encode and write never run on the publish path.
func (st *Store) OnPublish(s *lsh.Snapshot) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.err != nil || st.closed {
		return
	}
	st.buf = appendPublishRec(st.buf, s.Version())
	if err := st.flushLocked(); err != nil {
		st.err = err
		return
	}
	st.durable = s.Version()
	if st.checkpointBytes > 0 && st.retained > int64(st.checkpointBytes) && !st.rotating {
		if err := st.switchLogLocked(s.Version()); err != nil {
			st.err = err
			return
		}
		st.signalCheckpointLocked(s)
	}
}

// flushLocked writes the buffered records to the log and fsyncs.
func (st *Store) flushLocked() error {
	if len(st.buf) == 0 {
		return nil
	}
	n, err := st.wal.Write(st.buf)
	if err != nil {
		st.buf = nil // a partial record may be on disk; never append again
		return fmt.Errorf("persist: delta log write: %w", err)
	}
	st.walLen += n
	st.retained += int64(n)
	st.buf = st.buf[:0]
	if err := st.wal.Sync(); err != nil {
		st.buf = nil
		return fmt.Errorf("persist: delta log sync: %w", err)
	}
	return nil
}

// switchLogLocked seals the current log — its final record is the publish
// marker of v, just flushed — and starts wal-<v> as the live log. The new
// log is created, headered, fsynced and its directory entry synced before
// the old handle is released, so the chain on disk is never broken. A
// failure here is sticky: appending to the old log after a half-created
// successor exists would make recovery ambiguous.
func (st *Store) switchLogLocked(v uint64) error {
	if v == st.walBase {
		return nil
	}
	f, err := st.fs.Create(filepath.Join(st.dir, walName(v)))
	if err != nil {
		return fmt.Errorf("persist: create delta log: %w", err)
	}
	hdr := appendWalHeader(nil, v)
	if _, err = f.Write(hdr); err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		return fmt.Errorf("persist: init delta log: %w", err)
	}
	if err := st.fs.SyncDir(st.dir); err != nil {
		f.Close()
		return fmt.Errorf("persist: sync store dir: %w", err)
	}
	if st.wal != nil {
		st.wal.Close()
	}
	st.wal, st.walBase, st.walLen = f, v, len(hdr)
	return nil
}

// signalCheckpointLocked hands s to the per-store checkpointer goroutine,
// starting it on first use. The rotating flag guarantees at most one
// outstanding signal, so the buffered send never blocks the publish path.
func (st *Store) signalCheckpointLocked(s *lsh.Snapshot) {
	if st.ckptC == nil {
		st.ckptC = make(chan *lsh.Snapshot, 1)
		st.ckptDone = make(chan struct{})
		go st.checkpointer(st.ckptC, st.ckptDone)
	}
	st.rotating = true
	st.ckptC <- s
}

// checkpointer is the background goroutine: one commit at a time, exits
// when Close drains the channel.
func (st *Store) checkpointer(c chan *lsh.Snapshot, done chan struct{}) {
	defer close(done)
	for s := range c {
		st.backgroundCheckpoint(s)
		st.mu.Lock()
		st.rotating = false
		st.mu.Unlock()
	}
}

// backgroundCheckpoint commits s — already sealed into the log chain by a
// log switch — as the manifest checkpoint. It never touches the live log
// and never clears a sticky error: the active log may hold the very torn
// record the error is about, and only an inline Checkpoint (which cuts a
// fresh log) supersedes it. Failures set the sticky error; the store then
// freezes at its current durable version, which recovery serves exactly.
func (st *Store) backgroundCheckpoint(s *lsh.Snapshot) {
	v := s.Version()
	blob, err := encodeSnapshot(s)
	if err != nil {
		st.setErr(err)
		return
	}
	st.ckptMu.Lock()
	defer st.ckptMu.Unlock()
	st.mu.Lock()
	stale := st.ckptVer >= v
	st.mu.Unlock()
	if stale {
		return // a newer inline checkpoint already committed
	}
	if err := st.writeFileSync(snapName(v), blob); err != nil {
		st.setErr(err)
		return
	}
	if err := st.writeFileSync(manifestName, encodeManifest(v)); err != nil {
		st.setErr(err)
		return
	}
	st.mu.Lock()
	st.ckptVer = v
	if st.walBase == v {
		st.retained = int64(st.walLen - walHeaderLen)
	}
	st.mu.Unlock()
	st.cleanup(v)
}

func (st *Store) setErr(err error) {
	st.mu.Lock()
	if st.err == nil {
		st.err = err
	}
	st.mu.Unlock()
}

// Checkpoint persists s as a fresh durable checkpoint and resets the delta
// log. The snapshot must be the index's current version with no log records
// beyond it — call it from idx.PublishAndThen (or before the index is
// shared), never from an unsynchronized goroutine. A successful checkpoint
// clears a sticky error: the snapshot supersedes whatever the broken log
// was missing.
func (st *Store) Checkpoint(s *lsh.Snapshot) error {
	st.ckptMu.Lock()
	defer st.ckptMu.Unlock()
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.checkpointLocked(s)
}

// checkpointLocked runs with both ckptMu and mu held.
func (st *Store) checkpointLocked(s *lsh.Snapshot) error {
	if st.closed {
		return fmt.Errorf("persist: store is closed")
	}
	v := s.Version()
	blob, err := encodeSnapshot(s)
	if err != nil {
		st.err = err
		return err
	}
	if err := st.writeFileSync(snapName(v), blob); err != nil {
		st.err = err
		return err
	}
	if err := st.writeFileSync(manifestName, encodeManifest(v)); err != nil {
		st.err = err
		return err
	}
	// The old checkpoint chain is no longer named; start the new log. A
	// crash before the log exists is fine — Open treats a missing log as
	// empty — so the store is already durable at v from here on.
	if st.wal != nil {
		st.wal.Close()
		st.wal = nil
	}
	f, err := st.fs.Create(filepath.Join(st.dir, walName(v)))
	if err != nil {
		st.err = err
		return fmt.Errorf("persist: create delta log: %w", err)
	}
	hdr := appendWalHeader(nil, v)
	_, err = f.Write(hdr)
	if err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		st.err = err
		return fmt.Errorf("persist: init delta log: %w", err)
	}
	if err := st.fs.SyncDir(st.dir); err != nil {
		f.Close()
		st.err = err
		return fmt.Errorf("persist: sync store dir: %w", err)
	}
	st.wal, st.walBase, st.walLen = f, v, len(hdr)
	st.buf = nil
	st.durable = v
	st.ckptVer = v
	st.retained = 0
	st.err = nil
	st.cleanup(v)
	return nil
}

// cleanup removes snapshots and logs superseded by the checkpoint at keep
// — chain links whose base is at or after keep stay — best-effort:
// failures leave garbage files, never inconsistency. Callers hold ckptMu,
// so no checkpoint commit has a temp file in flight.
func (st *Store) cleanup(keep uint64) {
	names, err := st.fs.ReadDir(st.dir)
	if err != nil {
		return
	}
	for _, name := range names {
		var stale bool
		switch filepath.Ext(name) {
		case ".lsnap":
			stale = name != snapName(keep)
		case ".log":
			base, ok := walBaseFromName(name)
			stale = !ok || base < keep
		case ".tmp":
			stale = true
		}
		if stale {
			st.fs.Remove(filepath.Join(st.dir, name))
		}
	}
}

// writeFileSync writes name atomically: temp file, fsync, rename, directory
// fsync.
func (st *Store) writeFileSync(name string, data []byte) error {
	tmp := filepath.Join(st.dir, name+".tmp")
	f, err := st.fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("persist: create %s: %w", tmp, err)
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		return fmt.Errorf("persist: write %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("persist: close %s: %w", tmp, err)
	}
	if err := st.fs.Rename(tmp, filepath.Join(st.dir, name)); err != nil {
		return fmt.Errorf("persist: rename %s: %w", name, err)
	}
	if err := st.fs.SyncDir(st.dir); err != nil {
		return fmt.Errorf("persist: sync store dir: %w", err)
	}
	return nil
}

// Close drains the background checkpointer (a signaled rotation finishes
// committing), releases the log handle and reports the sticky error, if
// any. It does not checkpoint — callers that want shutdown durability
// checkpoint first via idx.PublishAndThen (the public Collection.Close
// does). Close is idempotent; a closed store ignores further hook
// callbacks.
func (st *Store) Close() error {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return nil
	}
	st.closed = true
	c, done := st.ckptC, st.ckptDone
	st.ckptC, st.ckptDone = nil, nil
	st.mu.Unlock()
	if c != nil {
		close(c)
		<-done
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.wal != nil {
		st.wal.Close()
		st.wal = nil
	}
	return st.err
}

// shardDirName names shard s's store directory inside a group store.
func shardDirName(s int) string { return fmt.Sprintf("shard-%04d", s) }

// ShardDir returns the store directory of shard s inside the group store
// rooted at dir.
func ShardDir(dir string, s int) string { return filepath.Join(dir, shardDirName(s)) }

// CreateGroup initializes a store for g. A one-shard group is a plain
// store, written exactly as Create writes it. A larger one gets one plain
// store per shard plus the GROUP manifest, written last as the commit
// point. It must complete before the group is shared with writers.
func CreateGroup(fsys faultfs.FS, dir string, g *lsh.ShardGroup) ([]*Store, error) {
	if g.S() == 1 {
		st, err := Create(fsys, dir, g.Shard(0))
		if err != nil {
			return nil, err
		}
		return []*Store{st}, nil
	}
	if err := vacant(fsys, dir); err != nil {
		return nil, err
	}
	spec, err := lsh.SpecOf(g.Family())
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	stores := make([]*Store, 0, g.S())
	for s := 0; s < g.S(); s++ {
		st, err := Create(fsys, ShardDir(dir, s), g.Shard(s))
		if err != nil {
			closeAll(stores...)
			return nil, err
		}
		stores = append(stores, st)
	}
	meta := GroupMeta{Family: spec, K: g.K(), Ell: g.L(), Shards: g.S()}
	if err := (&Store{fs: fsys, dir: dir}).writeFileSync(groupName, encodeGroupManifest(meta)); err != nil {
		closeAll(stores...)
		return nil, err
	}
	return stores, nil
}

// OpenGroup recovers the self-join store in dir as a shard group. A plain
// store opens as the one-shard group, its meta taken from the recovered
// index. A GROUP store's manifest names the shape, each shard recovers
// independently through Open, and the reassembled group routes exactly as
// the one that wrote the stores. On error every shard already recovered is
// released.
func OpenGroup(fsys faultfs.FS, dir string) (*lsh.ShardGroup, []*Store, GroupMeta, error) {
	var meta GroupMeta
	var stores []*Store
	fail := func(err error) (*lsh.ShardGroup, []*Store, GroupMeta, error) {
		closeAll(stores...)
		return nil, nil, meta, err
	}
	l, mdata, err := probe(fsys, dir)
	if err != nil {
		return fail(err)
	}
	var idxs []*lsh.Index
	switch l {
	case plainLayout:
		idx, st, err := openPlain(fsys, dir, mdata)
		if err != nil {
			return fail(err)
		}
		idxs, stores = []*lsh.Index{idx}, []*Store{st}
		spec, err := lsh.SpecOf(idx.Family())
		if err != nil {
			return fail(corrupt("persist: %v", err))
		}
		meta = GroupMeta{Family: spec, K: idx.K(), Ell: idx.L(), Shards: 1}
	case groupLayout:
		if meta, err = decodeGroupManifest(mdata); err != nil {
			return fail(err)
		}
		for s := 0; s < meta.Shards; s++ {
			idx, st, err := Open(fsys, ShardDir(dir, s))
			if err != nil {
				return fail(fmt.Errorf("shard %d: %w", s, err))
			}
			idxs, stores = append(idxs, idx), append(stores, st)
		}
	default:
		return fail(notExist(dir, l))
	}
	family, err := lsh.FamilyFromSpec(meta.Family)
	if err != nil {
		return fail(corrupt("persist: %v", err))
	}
	g, err := lsh.NewShardGroupFromIndexes(family, meta.K, meta.Ell, idxs)
	if err != nil {
		return fail(corrupt("persist: %v", err))
	}
	return g, stores, meta, nil
}
