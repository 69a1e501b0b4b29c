package core

import (
	"testing"

	"lshjoin/internal/lsh"
	"lshjoin/internal/vecmath"
	"lshjoin/internal/xrand"
)

// routedVector returns a test vector that g routes to shard s.
func routedVector(t *testing.T, g *lsh.ShardGroup, s int) vecmath.Vector {
	t.Helper()
	for _, v := range testData(200, 9001) {
		if g.Route(v) == s {
			return v
		}
	}
	t.Fatalf("no test vector routes to shard %d", s)
	return vecmath.Vector{}
}

// sameDraws asserts two stratum views produce the identical sample stream
// from the same seed — the cached rebuild must be draw-for-draw equal to a
// fresh build, not merely equal in aggregate.
func sameDraws(t *testing.T, a, b BipartiteStratum) {
	t.Helper()
	ra, rb := xrand.New(42), xrand.New(42)
	for i := 0; i < 200; i++ {
		au, av, aok := a.SamplePair(ra)
		bu, bv, bok := b.SamplePair(rb)
		if au != bu || av != bv || aok != bok {
			t.Fatalf("draw %d: cached (%d,%d,%v), fresh (%d,%d,%v)", i, au, av, aok, bu, bv, bok)
		}
	}
}

// A single-shard publish must rebuild only that shard's row of bipartite
// components: every component over untouched shard pairs stays
// pointer-identical across the cache advance, and the rebuilt view matches a
// fresh build exactly.
func TestBipartiteStratumCacheComponentReuse(t *testing.T) {
	fam := lsh.NewSimHash(7)
	gl, err := lsh.NewShardGroup(testData(120, 311), fam, 6, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	gr, err := lsh.NewShardGroup(testData(140, 317), fam, 6, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	c := NewBipartiteStratumCache(0)
	lgs, rgs := gl.Capture(), gr.Capture()

	v1, err := c.View(lgs, rgs)
	if err != nil {
		t.Fatal(err)
	}
	ms1, ok := v1.(*MergedBipartiteStratum)
	if !ok {
		t.Fatalf("2x2 view is %T, want *MergedBipartiteStratum", v1)
	}
	if v2, err := c.View(lgs, rgs); err != nil || v2 != v1 {
		t.Fatalf("unchanged capture rebuilt the view: %v, %v", v2, err)
	}

	// Publish on left shard 0 only; shard 1 and both right shards are
	// untouched, so components (1,0) and (1,1) must be reused.
	gl.Shard(0).Insert(routedVector(t, gl, 0))
	lgs2 := gl.Capture()
	if lgs2.Versions()[0] == lgs.Versions()[0] || lgs2.Versions()[1] != lgs.Versions()[1] {
		t.Fatalf("publish moved versions %v -> %v, want shard 0 only", lgs.Versions(), lgs2.Versions())
	}
	v2, err := c.View(lgs2, rgs)
	if err != nil {
		t.Fatal(err)
	}
	ms2 := v2.(*MergedBipartiteStratum)
	bp := func(ms *MergedBipartiteStratum, c int) *lsh.Bipartite { return ms.comps[c].(crossComponent).bp }
	for b := 0; b < 2; b++ {
		if bp(ms2, 2+b) != bp(ms1, 2+b) {
			t.Fatalf("untouched component (1,%d) was rebuilt", b)
		}
		if bp(ms2, b) == bp(ms1, b) {
			t.Fatalf("stale component (0,%d) was reused across a publish", b)
		}
	}
	fresh, err := NewMergedBipartiteStratum(lgs2, rgs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ms2.NH() != fresh.NH() || ms2.M() != fresh.M() {
		t.Fatalf("cached rebuild (NH,M)=(%d,%d), fresh (%d,%d)", ms2.NH(), ms2.M(), fresh.NH(), fresh.M())
	}
	sameDraws(t, ms2, fresh)

	// A reader serving an older capture gets a correct one-off view — it may
	// reuse the shard pairs it shares with the adopted view — without
	// evicting the newer adopted one.
	vOld, err := c.View(lgs, rgs)
	if err != nil {
		t.Fatal(err)
	}
	freshOld, err := NewMergedBipartiteStratum(lgs, rgs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if vOld.NH() != freshOld.NH() {
		t.Fatalf("stale capture view NH %d, fresh %d", vOld.NH(), freshOld.NH())
	}
	if vNow, err := c.View(lgs2, rgs); err != nil || vNow != v2 {
		t.Fatalf("stale reader evicted the adopted view: %v, %v", vNow, err)
	}
}

// versionPairAdvances is the cache's two-sided advance rule: neither side
// may regress and at least one component must advance.
func TestVersionPairAdvances(t *testing.T) {
	v := func(xs ...uint64) []uint64 { return xs }
	cases := []struct {
		lNext, lPrev, rNext, rPrev []uint64
		want                       bool
	}{
		{v(2, 1), v(1, 1), v(5), v(5), true},  // left advanced
		{v(1, 1), v(1, 1), v(6), v(5), true},  // right advanced
		{v(1, 1), v(1, 1), v(5), v(5), false}, // identical pair
		{v(2, 1), v(1, 2), v(5), v(5), false}, // left incomparable (sum alias)
		{v(2, 1), v(1, 1), v(4), v(5), false}, // left advanced but right regressed
		{v(1), v(1, 1), v(5), v(5), false},    // shape mismatch
		{v(2, 2), v(1, 1), v(6), v(5), true},  // both advanced
	}
	for _, c := range cases {
		if got := versionPairAdvances(c.lNext, c.lPrev, c.rNext, c.rPrev); got != c.want {
			t.Errorf("versionPairAdvances(%v,%v,%v,%v) = %v, want %v", c.lNext, c.lPrev, c.rNext, c.rPrev, got, c.want)
		}
	}
}

// With one shard per side the cache serves a one-component merged view that
// draws exactly what the plain per-snapshot bipartite matching draws, and
// still reuses it across unchanged captures.
func TestBipartiteStratumCacheSingleShard(t *testing.T) {
	fam := lsh.NewSimHash(7)
	gl, err := lsh.NewShardGroup(testData(60, 11), fam, 6, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	gr, err := lsh.NewShardGroup(testData(70, 13), fam, 6, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	c := NewBipartiteStratumCache(0)
	lgs, rgs := gl.Capture(), gr.Capture()
	v1, err := c.View(lgs, rgs)
	if err != nil {
		t.Fatal(err)
	}
	if ms, ok := v1.(*MergedBipartiteStratum); !ok || ms.Components() != 1 {
		t.Fatalf("1x1 view is %T, want a one-component *MergedBipartiteStratum", v1)
	}
	if v2, err := c.View(lgs, rgs); err != nil || v2 != v1 {
		t.Fatalf("unchanged 1x1 capture rebuilt the view: %v, %v", v2, err)
	}
	want, err := lsh.NewBipartite(lgs.Snap(0), rgs.Snap(0), 0)
	if err != nil {
		t.Fatal(err)
	}
	sameDraws(t, v1, want)

	gl.Insert(routedVector(t, gl, 0))
	lgs2 := gl.Capture()
	v3, err := c.View(lgs2, rgs)
	if err != nil {
		t.Fatal(err)
	}
	if v3 == v1 {
		t.Fatal("stale 1x1 view reused across a publish")
	}
}
