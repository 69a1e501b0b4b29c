package lshjoin

import (
	"encoding/hex"
	"errors"
	"maps"
	"net"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"lshjoin/internal/lsh"
)

// openTwice opens the same store twice and fails the test on error.
func openTwice(t *testing.T, dir string) (*Collection, *Collection) {
	t.Helper()
	a, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("first Open: %v", err)
	}
	b, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("second Open: %v", err)
	}
	return a, b
}

// requireSameCollection checks two collections are observably identical:
// same shape, same vectors, same exact join, and — the strictest check —
// identical seeded estimator draws, which only hold if the bucket
// sequences match entry for entry.
func requireSameCollection(t *testing.T, a, b *Collection) {
	t.Helper()
	if a.N() != b.N() || a.K() != b.K() || a.Tables() != b.Tables() || a.Version() != b.Version() {
		t.Fatalf("shape differs: n=%d/%d k=%d/%d ell=%d/%d v=%d/%d",
			a.N(), b.N(), a.K(), b.K(), a.Tables(), b.Tables(), a.Version(), b.Version())
	}
	for i := 0; i < a.N(); i++ {
		if Cosine(a.Vector(i), b.Vector(i)) < 1-1e-12 {
			t.Fatalf("vector %d differs after reopen", i)
		}
	}
	ea, err := a.Estimator(AlgoLSHSS, WithEstimatorSeed(77))
	if err != nil {
		t.Fatal(err)
	}
	eb, err := b.Estimator(AlgoLSHSS, WithEstimatorSeed(77))
	if err != nil {
		t.Fatal(err)
	}
	for _, tau := range []float64{0.2, 0.4, 0.6} {
		x, err1 := ea.Estimate(tau)
		y, err2 := eb.Estimate(tau)
		if err1 != nil || err2 != nil {
			t.Fatalf("estimate errs: %v %v", err1, err2)
		}
		if x != y {
			t.Fatalf("seeded estimates diverge at tau=%v: %v vs %v", tau, x, y)
		}
	}
	xa, err := a.ExactJoinSize(0.5)
	if err != nil {
		t.Fatal(err)
	}
	xb, err := b.ExactJoinSize(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if xa != xb {
		t.Fatalf("exact join differs: %d vs %d", xa, xb)
	}
}

func TestDurableRoundtrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	vecs := fixtureVectors(t, 260)

	c, err := New(vecs[:200], Options{Dir: dir, K: 8, Tables: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vecs[200:230] {
		c.Insert(v)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	a, b := openTwice(t, dir)
	if a.N() != 230 {
		t.Fatalf("reopened N = %d, want 230", a.N())
	}
	if a.K() != 8 || a.Tables() != 2 {
		t.Fatalf("hash params not recovered: k=%d ell=%d", a.K(), a.Tables())
	}
	requireSameCollection(t, a, b)
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	// Mutations after a reopen must be durable too.
	for _, v := range vecs[230:] {
		a.Insert(v)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	d, e := openTwice(t, dir)
	if d.N() != 260 {
		t.Fatalf("after second cycle N = %d, want 260", d.N())
	}
	requireSameCollection(t, d, e)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

// A durable cross join abandoned without Close — the crash case — must
// recover both sides to their last durably published versions and serve
// draw-for-draw identical estimates: same version-vector pair, same N_H,
// same exact join, and the same seeded estimator stream the writer would
// have produced at those versions.
func TestDurableCrossJoinRoundtrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "xjoin")
	vecs := fixtureVectors(t, 280)
	left, right := vecs[:120], vecs[120:240]
	taus := []float64{0.3, 0.5, 0.7}

	cj, err := NewCrossJoin(left, right, Options{Dir: dir, Shards: 2, K: 8, Seed: 7, PublishEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vecs[240:260] {
		cj.InsertLeft(v)
	}
	for _, v := range vecs[260:] {
		cj.InsertRight(v)
	}
	wantLV, wantRV := cj.LeftVersions(), cj.RightVersions()
	wantNH := cj.PairsSharingBucket()
	wantExact := cj.ExactJoinSize(0.6)
	// The writer's first estimator draws (seed counter 1, 2, 3) — the stream
	// a recovered join, whose counter restarts at zero, must reproduce.
	wantEst := make([]float64, len(taus))
	for i, tau := range taus {
		if wantEst[i], err = cj.EstimateJoinSize(tau); err != nil {
			t.Fatal(err)
		}
	}
	// No Close: the writer is abandoned here, like a killed process. Every
	// published version is already fsynced, so nothing may be lost.

	r, err := OpenCrossJoin(dir, Options{})
	if err != nil {
		t.Fatalf("OpenCrossJoin: %v", err)
	}
	if r.Shards() != 2 || r.opt.K != 8 || r.opt.Seed != 7 {
		t.Fatalf("shape not recovered: s=%d k=%d seed=%d", r.Shards(), r.opt.K, r.opt.Seed)
	}
	if r.LeftN() != 140 || r.RightN() != 140 {
		t.Fatalf("sides recovered to %d/%d vectors, want 140/140", r.LeftN(), r.RightN())
	}
	if gotLV, gotRV := r.LeftVersions(), r.RightVersions(); !slices.Equal(gotLV, wantLV) || !slices.Equal(gotRV, wantRV) {
		t.Fatalf("recovered version pair (%v, %v), want (%v, %v)", gotLV, gotRV, wantLV, wantRV)
	}
	if got := r.PairsSharingBucket(); got != wantNH {
		t.Fatalf("recovered N_H = %d, want %d", got, wantNH)
	}
	if got := r.ExactJoinSize(0.6); got != wantExact {
		t.Fatalf("recovered exact join = %d, want %d", got, wantExact)
	}
	for i, tau := range taus {
		got, err := r.EstimateJoinSize(tau)
		if err != nil {
			t.Fatal(err)
		}
		if got != wantEst[i] {
			t.Fatalf("recovered estimate at tau=%v: %v, want %v (draw stream diverged)", tau, got, wantEst[i])
		}
	}

	// Mutations after recovery persist across a clean Close cycle on both
	// sides.
	r.InsertLeft(vecs[240])
	r.InsertRight(vecs[260])
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	r2, err := OpenCrossJoin(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r2.LeftN() != 141 || r2.RightN() != 141 {
		t.Fatalf("after second cycle sides hold %d/%d vectors, want 141/141", r2.LeftN(), r2.RightN())
	}
	if err := r2.Close(); err != nil {
		t.Fatal(err)
	}

	// Opener error surface, matching Open/OpenSharded.
	if _, err := OpenCrossJoin(filepath.Join(t.TempDir(), "nope"), Options{}); !errors.Is(err, ErrNoStore) {
		t.Errorf("OpenCrossJoin of missing dir: got %v, want ErrNoStore", err)
	}
	if _, err := NewCrossJoin(left, right, Options{Dir: dir}); !errors.Is(err, ErrStoreExists) {
		t.Errorf("NewCrossJoin over existing store: got %v, want ErrStoreExists", err)
	}
	if _, err := OpenCrossJoin(dir, Options{Shards: 3}); !errors.Is(err, ErrInvalidOptions) {
		t.Errorf("shard-count conflict: got %v, want ErrInvalidOptions", err)
	}
	if _, err := OpenCrossJoin(dir, Options{Tables: 2}); !errors.Is(err, ErrInvalidOptions) {
		t.Errorf("Tables=2 against a cross store: got %v, want ErrInvalidOptions", err)
	}
}

// Options.CheckpointBytes must reach every store a constructor or opener
// touches — single, sharded and both cross-join sides.
func TestCheckpointBytesRoundtrip(t *testing.T) {
	vecs := fixtureVectors(t, 64)
	const threshold = 1 << 12

	dir := filepath.Join(t.TempDir(), "plain")
	c, err := New(vecs, Options{Dir: dir, CheckpointBytes: threshold})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.local.stores[0].CheckpointBytes(); got != threshold {
		t.Fatalf("New store threshold %d, want %d", got, threshold)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	c, err = Open(dir, Options{CheckpointBytes: threshold})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.local.stores[0].CheckpointBytes(); got != threshold {
		t.Fatalf("Open store threshold %d, want %d", got, threshold)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	sdir := filepath.Join(t.TempDir(), "group")
	sc, err := NewSharded(vecs, Options{Dir: sdir, Shards: 2, CheckpointBytes: threshold})
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Close(); err != nil {
		t.Fatal(err)
	}
	sc, err = OpenSharded(sdir, Options{CheckpointBytes: threshold})
	if err != nil {
		t.Fatal(err)
	}
	for s, st := range sc.local.stores {
		if got := st.CheckpointBytes(); got != threshold {
			t.Fatalf("sharded store %d threshold %d, want %d", s, got, threshold)
		}
	}
	if err := sc.Close(); err != nil {
		t.Fatal(err)
	}

	xdir := filepath.Join(t.TempDir(), "xjoin")
	cj, err := NewCrossJoin(vecs[:32], vecs[32:], Options{Dir: xdir, Shards: 2, CheckpointBytes: threshold})
	if err != nil {
		t.Fatal(err)
	}
	if err := cj.Close(); err != nil {
		t.Fatal(err)
	}
	cj, err = OpenCrossJoin(xdir, Options{CheckpointBytes: threshold})
	if err != nil {
		t.Fatal(err)
	}
	for s := range cj.left.stores {
		if got := cj.left.stores[s].CheckpointBytes(); got != threshold {
			t.Fatalf("cross left store %d threshold %d, want %d", s, got, threshold)
		}
		if got := cj.right.stores[s].CheckpointBytes(); got != threshold {
			t.Fatalf("cross right store %d threshold %d, want %d", s, got, threshold)
		}
	}
	if err := cj.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDurableOpenErrors(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "nowhere"), Options{}); !errors.Is(err, ErrNoStore) {
		t.Errorf("Open of missing dir: got %v, want ErrNoStore", err)
	}

	dir := filepath.Join(t.TempDir(), "store")
	vecs := fixtureVectors(t, 32)
	c, err := New(vecs, Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := New(vecs, Options{Dir: dir}); !errors.Is(err, ErrStoreExists) {
		t.Errorf("New over existing store: got %v, want ErrStoreExists", err)
	}

	// Flip a byte in the middle of the manifest: recovery must refuse, not guess.
	manifest := filepath.Join(dir, "MANIFEST")
	raw, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(manifest, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrCorruptStore) {
		t.Errorf("Open of corrupted store: got %v, want ErrCorruptStore", err)
	}
}

func TestDurableOpenOptionConflicts(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	c, err := New(fixtureVectors(t, 32), Options{Dir: dir, K: 8, Tables: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	conflicts := []struct {
		name string
		opt  Options
	}{
		{"k", Options{K: 9}},
		{"tables", Options{Tables: 3}},
		{"seed", Options{Seed: 6}},
		{"measure", Options{Measure: JaccardSimilarity}},
	}
	for _, tc := range conflicts {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Open(dir, tc.opt); !errors.Is(err, ErrInvalidOptions) {
				t.Errorf("got %v, want ErrInvalidOptions", err)
			}
		})
	}

	// Asserting the true stored values is fine, and runtime options pass through.
	got, err := Open(dir, Options{K: 8, Tables: 2, Seed: 5, PublishEvery: 4})
	if err != nil {
		t.Fatalf("matching assertion rejected: %v", err)
	}
	if got.opt.PublishEvery != 4 {
		t.Errorf("PublishEvery not honored: %d", got.opt.PublishEvery)
	}
	if err := got.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDurableShardedRoundtrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "group")
	vecs := fixtureVectors(t, 300)

	c, err := NewSharded(vecs[:240], Options{Dir: dir, Shards: 3, K: 8, Tables: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Sharded ids pack (shard, local); remember the ids Insert hands out so
	// we can check the same vectors come back after recovery.
	insertedIDs := make([]int, 0, 60)
	for _, v := range vecs[240:] {
		insertedIDs = append(insertedIDs, c.Insert(v))
	}
	wantExact, err := c.ExactJoinSize(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	if _, err := OpenSharded(dir, Options{Shards: 4}); !errors.Is(err, ErrInvalidOptions) {
		t.Errorf("shard-count conflict: got %v, want ErrInvalidOptions", err)
	}
	if _, err := OpenSharded(filepath.Join(t.TempDir(), "nope"), Options{}); !errors.Is(err, ErrNoStore) {
		t.Errorf("OpenSharded of missing dir: got %v, want ErrNoStore", err)
	}
	if _, err := NewSharded(vecs[:240], Options{Dir: dir, Shards: 3}); !errors.Is(err, ErrStoreExists) {
		t.Errorf("NewSharded over existing group: got %v, want ErrStoreExists", err)
	}

	r, err := OpenSharded(dir, Options{})
	if err != nil {
		t.Fatalf("OpenSharded: %v", err)
	}
	if r.Shards() != 3 || r.K() != 8 || r.Tables() != 2 {
		t.Fatalf("group shape not recovered: s=%d k=%d ell=%d", r.Shards(), r.K(), r.Tables())
	}
	if r.N() != 300 {
		t.Fatalf("reopened N = %d, want 300", r.N())
	}
	for j, id := range insertedIDs {
		if Cosine(r.Vector(id), vecs[240+j]) < 1-1e-12 {
			t.Fatalf("vector id %d differs after reopen", id)
		}
	}
	gotExact, err := r.ExactJoinSize(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if gotExact != wantExact {
		t.Fatalf("exact join after reopen: %d, want %d", gotExact, wantExact)
	}
	for _, q := range []int{3, 77, 141} {
		hits := r.SearchSimilar(vecs[q], 0.7)
		found := false
		for _, h := range hits {
			found = found || Cosine(r.Vector(h), vecs[q]) >= 1-1e-12
		}
		if !found {
			t.Fatalf("query %d does not find itself after reopen", q)
		}
	}

	// Mutations after reopen persist across another cycle.
	extra, err := GenerateDataset(DatasetDBLP, 20, 99)
	if err != nil {
		t.Fatal(err)
	}
	r.InsertBatch(extra)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2, err := OpenSharded(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r2.N() != 320 {
		t.Fatalf("after second cycle N = %d, want 320", r2.N())
	}
	if err := r2.Close(); err != nil {
		t.Fatal(err)
	}
}

// storeListing maps every file under dir to its size: what a creator that
// refuses a directory must leave untouched.
func storeListing(t *testing.T, dir string) map[string]int64 {
	t.Helper()
	out := make(map[string]int64)
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		out[path] = info.Size()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestStoreKindMatrix drives every local constructor and opener against
// every store kind. A directory holds one store: creators refuse any store
// with ErrStoreExists and write nothing; a self-join opener serves a plain
// store and a sharded one (a plain store is the one-shard group), the
// one-shard front ends refuse more shards with ErrInvalidOptions naming
// OpenSharded, and a store of the other join kind is ErrNoStore.
func TestStoreKindMatrix(t *testing.T) {
	vecs := fixtureVectors(t, 90)
	base := t.TempDir()
	kinds := map[string]string{
		"plain":    filepath.Join(base, "plain"),
		"oneshard": filepath.Join(base, "oneshard"),
		"sharded":  filepath.Join(base, "sharded"),
		"cross":    filepath.Join(base, "cross"),
	}
	mustClose := func(c interface{ Close() error }) {
		t.Helper()
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	c, err := New(vecs[:60], Options{Dir: kinds["plain"], K: 8})
	if err != nil {
		t.Fatal(err)
	}
	mustClose(c)
	sc, err := NewSharded(vecs[:60], Options{Dir: kinds["oneshard"], K: 8, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	mustClose(sc)
	if sc, err = NewSharded(vecs[:60], Options{Dir: kinds["sharded"], K: 8, Shards: 3}); err != nil {
		t.Fatal(err)
	}
	mustClose(sc)
	cj, err := NewCrossJoin(vecs[:30], vecs[30:60], Options{Dir: kinds["cross"], K: 8, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	mustClose(cj)

	creators := map[string]func(dir string) error{
		"New":        func(dir string) error { _, err := New(vecs, Options{Dir: dir}); return err },
		"NewSharded": func(dir string) error { _, err := NewSharded(vecs, Options{Dir: dir, Shards: 3}); return err },
		"NewCrossJoin": func(dir string) error {
			_, err := NewCrossJoin(vecs[:45], vecs[45:], Options{Dir: dir, Shards: 2})
			return err
		},
	}
	for kind, dir := range kinds {
		for name, create := range creators {
			before := storeListing(t, dir)
			if err := create(dir); !errors.Is(err, ErrStoreExists) {
				t.Errorf("%s over a %s store: got %v, want ErrStoreExists", name, kind, err)
			}
			if after := storeListing(t, dir); !maps.Equal(before, after) {
				t.Errorf("%s over a %s store changed the directory (%d -> %d entries)", name, kind, len(before), len(after))
			}
		}
	}

	openers := map[string]func(dir string) (interface{ Close() error }, error){
		"Open":           func(dir string) (interface{ Close() error }, error) { return Open(dir, Options{}) },
		"OpenSharded":    func(dir string) (interface{ Close() error }, error) { return OpenSharded(dir, Options{}) },
		"OpenCrossJoin":  func(dir string) (interface{ Close() error }, error) { return OpenCrossJoin(dir, Options{}) },
		"NewShardServer": func(dir string) (interface{ Close() error }, error) { return NewShardServer(Options{Dir: dir}) },
	}
	// want names the expected error per (opener, kind); nil means it opens.
	want := map[string]map[string]error{
		"Open":           {"plain": nil, "oneshard": nil, "sharded": ErrInvalidOptions, "cross": ErrNoStore},
		"OpenSharded":    {"plain": nil, "oneshard": nil, "sharded": nil, "cross": ErrNoStore},
		"OpenCrossJoin":  {"plain": ErrNoStore, "oneshard": ErrNoStore, "sharded": ErrNoStore, "cross": nil},
		"NewShardServer": {"plain": nil, "oneshard": nil, "sharded": ErrInvalidOptions, "cross": ErrStoreExists},
	}
	for name, open := range openers {
		for kind, dir := range kinds {
			got, err := open(dir)
			switch w := want[name][kind]; {
			case w == nil && err != nil:
				t.Errorf("%s of a %s store: %v", name, kind, err)
			case w == nil:
				mustClose(got)
			case !errors.Is(err, w):
				t.Errorf("%s of a %s store: got %v, want %v", name, kind, err, w)
			case w == ErrInvalidOptions && (!strings.Contains(err.Error(), "3-shard") || !strings.Contains(err.Error(), "OpenSharded")):
				t.Errorf("%s of a %s store: %q should name the shard count and OpenSharded", name, kind, err)
			}
		}
	}
	r, err := OpenSharded(kinds["plain"], Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Shards() != 1 || r.N() != 60 {
		t.Errorf("OpenSharded of a plain store: %d shards, n = %d; want 1 shard, n = 60", r.Shards(), r.N())
	}
	mustClose(r)
}

// legacyOneShardGroup is the GROUP manifest a one-shard sharded store was
// committed with before plain stores served as one-shard groups: format 1,
// simhash seed 17, k = 6, ℓ = 2, one shard, version word 2.
const legacyOneShardGroup = "4c5348475250310a010773696d6861736811000000000000000106020102000000000000005eb6dc22"

// Stores written in the earlier one-shard group layout — GROUP plus a plain
// store in shard-0000 — keep opening through both self-join openers.
func TestLegacyOneShardGroupOpens(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "group")
	vecs := fixtureVectors(t, 40)
	c, err := New(vecs, Options{Dir: filepath.Join(dir, "shard-0000"), K: 6, Tables: 2, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	manifest, err := hex.DecodeString(legacyOneShardGroup)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "GROUP"), manifest, 0o644); err != nil {
		t.Fatal(err)
	}
	o, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if o.N() != 40 || o.K() != 6 || o.Tables() != 2 {
		t.Fatalf("Open recovered n=%d k=%d ell=%d", o.N(), o.K(), o.Tables())
	}
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	s, err := OpenSharded(dir, Options{})
	if err != nil {
		t.Fatalf("OpenSharded: %v", err)
	}
	if s.N() != 40 || s.Shards() != 1 {
		t.Fatalf("OpenSharded recovered n=%d shards=%d", s.N(), s.Shards())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// Options.SignPanelBytes reaches every shard an entry point recovers or
// decodes, not only the ones a constructor builds: restored indexes sign
// their insert batches under the configured budget.
func TestSignPanelBytesReachesEveryShard(t *testing.T) {
	const budget = 1 << 16
	vecs := fixtureVectors(t, 64)
	check := func(entry string, shards ...*lsh.Index) {
		t.Helper()
		for s, x := range shards {
			if got := x.SignConfig().PanelBytes; got != budget {
				t.Errorf("%s: shard %d signs with PanelBytes %d, want %d", entry, s, got, budget)
			}
		}
	}
	groupShards := func(g *lsh.ShardGroup) []*lsh.Index {
		out := make([]*lsh.Index, g.S())
		for s := range out {
			out[s] = g.Shard(s)
		}
		return out
	}
	base := t.TempDir()
	plain, sharded, cross, served := filepath.Join(base, "plain"), filepath.Join(base, "sharded"), filepath.Join(base, "cross"), filepath.Join(base, "served")
	for _, create := range []func() (interface{ Close() error }, error){
		func() (interface{ Close() error }, error) { return New(vecs, Options{Dir: plain}) },
		func() (interface{ Close() error }, error) { return NewSharded(vecs, Options{Dir: sharded, Shards: 2}) },
		func() (interface{ Close() error }, error) {
			return NewCrossJoin(vecs[:32], vecs[32:], Options{Dir: cross, Shards: 2})
		},
		func() (interface{ Close() error }, error) { return NewShardServer(Options{Dir: served}) },
	} {
		c, err := create()
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	opt := Options{SignPanelBytes: budget}

	c, err := Open(plain, opt)
	if err != nil {
		t.Fatal(err)
	}
	check("Open", groupShards(c.local.ShardGroup)...)
	c.Close()
	sc, err := OpenSharded(sharded, opt)
	if err != nil {
		t.Fatal(err)
	}
	check("OpenSharded", groupShards(sc.local.ShardGroup)...)
	sc.Close()
	cj, err := OpenCrossJoin(cross, opt)
	if err != nil {
		t.Fatal(err)
	}
	check("OpenCrossJoin", append(groupShards(cj.left.ShardGroup), groupShards(cj.right.ShardGroup)...)...)
	cj.Close()

	o := opt
	o.Dir = served
	srv, err := NewShardServer(o)
	if err != nil {
		t.Fatal(err)
	}
	check("NewShardServer", srv.local.Shard(0), srv.srv.Index())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	rem, err := Connect([]string{ln.Addr().String()}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rem.N(); err != nil {
		t.Fatal(err)
	}
	check("Connect", rem.remote.copies[0].idx)
	rem.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}
