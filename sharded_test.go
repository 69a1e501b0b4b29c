package lshjoin

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"lshjoin/internal/exactjoin"
)

func TestNewShardedValidation(t *testing.T) {
	vecs := fixtureVectors(t, 10)
	if _, err := NewSharded(nil, Options{}); err == nil {
		t.Error("empty collection accepted")
	}
	if _, err := NewSharded(vecs[:1], Options{}); err == nil {
		t.Error("single vector accepted")
	}
	if _, err := NewSharded(vecs, Options{Measure: Measure(9)}); err == nil {
		t.Error("unknown measure accepted")
	}
	if _, err := NewSharded(vecs, Options{Shards: -1}); err == nil {
		t.Error("negative shard count accepted")
	}
	c, err := NewSharded(vecs, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if c.Shards() != 4 || c.N() != len(vecs) {
		t.Fatalf("Shards=%d N=%d", c.Shards(), c.N())
	}
}

// The S=1 draw-for-draw property: a single-shard ShardedCollection is
// observably identical to a Collection built with the same options — same
// index state, same estimator streams, same search and join results — across
// a mixed Insert/InsertBatch workload and both measures.
func TestShardedSingleShardDrawForDraw(t *testing.T) {
	for _, measure := range []Measure{CosineSimilarity, JaccardSimilarity} {
		t.Run(fmt.Sprintf("measure=%d", measure), func(t *testing.T) {
			vecs := fixtureVectors(t, 460)
			opt := Options{K: 6, Tables: 3, Seed: 5, Measure: measure, PublishEvery: 7}
			coll, err := New(vecs[:400], opt)
			if err != nil {
				t.Fatal(err)
			}
			shrd, err := NewSharded(vecs[:400], opt) // Shards defaults to 1
			if err != nil {
				t.Fatal(err)
			}
			for i := 400; i < 440; i++ {
				a := coll.Insert(vecs[i])
				b := shrd.Insert(vecs[i])
				if a != b {
					t.Fatalf("insert %d: id %d vs %d", i, a, b)
				}
			}
			ca := coll.InsertBatch(vecs[440:])
			cb := shrd.InsertBatch(vecs[440:])
			if cb[0] != ca {
				t.Fatalf("batch first id %d vs %d", cb[0], ca)
			}
			if coll.N() != shrd.N() || coll.Version() != shrd.Version() {
				t.Fatalf("N %d/%d version %d/%d", coll.N(), shrd.N(), coll.Version(), shrd.Version())
			}
			if coll.PairsSharingBucket() != shrd.PairsSharingBucket() {
				t.Fatalf("N_H %d vs %d", coll.PairsSharingBucket(), shrd.PairsSharingBucket())
			}
			if coll.IndexBytes() != shrd.IndexBytes() {
				t.Fatalf("IndexBytes %d vs %d", coll.IndexBytes(), shrd.IndexBytes())
			}
			for _, algo := range Algorithms() {
				for _, tau := range []float64{0.6, 0.9} {
					ea, err := coll.Estimator(algo, WithEstimatorSeed(41))
					if err != nil {
						t.Fatalf("%s: %v", algo, err)
					}
					eb, err := shrd.Estimator(algo, WithEstimatorSeed(41))
					if err != nil {
						t.Fatalf("%s sharded: %v", algo, err)
					}
					va, err := ea.Estimate(tau)
					if err != nil {
						t.Fatalf("%s: %v", algo, err)
					}
					vb, err := eb.Estimate(tau)
					if err != nil {
						t.Fatalf("%s sharded: %v", algo, err)
					}
					if va != vb {
						t.Fatalf("%s tau=%v: %v vs %v", algo, tau, va, vb)
					}
				}
			}
			taus := []float64{0.5, 0.7, 0.9}
			curveA, err := coll.EstimateJoinSizeCurve(taus)
			if err != nil {
				t.Fatal(err)
			}
			curveB, err := shrd.EstimateJoinSizeCurve(taus)
			if err != nil {
				t.Fatal(err)
			}
			for i := range taus {
				if curveA[i] != curveB[i] {
					t.Fatalf("curve[%d]: %v vs %v", i, curveA[i], curveB[i])
				}
			}
			xa, err := coll.ExactJoinSize(0.8)
			if err != nil {
				t.Fatal(err)
			}
			xb, err := shrd.ExactJoinSize(0.8)
			if err != nil {
				t.Fatal(err)
			}
			if xa != xb {
				t.Fatalf("exact join %d vs %d", xa, xb)
			}
			pa, err := coll.JoinPairs(0.9)
			if err != nil {
				t.Fatal(err)
			}
			pb, err := shrd.JoinPairs(0.9)
			if err != nil {
				t.Fatal(err)
			}
			if len(pa) != len(pb) {
				t.Fatalf("join pairs %d vs %d", len(pa), len(pb))
			}
			for i := range pa {
				if pa[i] != pb[i] {
					t.Fatalf("pair %d: %+v vs %+v", i, pa[i], pb[i])
				}
			}
			for _, q := range []int{0, 17, 399} {
				sa := coll.SearchSimilar(vecs[q], 0.7)
				sb := shrd.SearchSimilar(vecs[q], 0.7)
				if len(sa) != len(sb) {
					t.Fatalf("search %d: %d vs %d results", q, len(sa), len(sb))
				}
				for i := range sa {
					if sa[i] != sb[i] {
						t.Fatalf("search %d result %d: %d vs %d", q, i, sa[i], sb[i])
					}
				}
			}
		})
	}
}

// Union equivalence for S > 1: order-invariant observables (N_H, exact
// joins, the deterministic J_U estimate, search result sets) match a
// single-index Collection over the same vectors exactly, and the sampled
// merged estimators track the exact join size within their own variance.
func TestShardedUnionEquivalence(t *testing.T) {
	for _, shards := range []int{2, 4} {
		for _, measure := range []Measure{CosineSimilarity, JaccardSimilarity} {
			t.Run(fmt.Sprintf("s=%d measure=%d", shards, measure), func(t *testing.T) {
				vecs := fixtureVectors(t, 500)
				opt := Options{K: 6, Tables: 2, Seed: 9, Measure: measure}
				coll, err := New(vecs[:450], opt)
				if err != nil {
					t.Fatal(err)
				}
				sopt := opt
				sopt.Shards = shards
				shrd, err := NewSharded(vecs[:450], sopt)
				if err != nil {
					t.Fatal(err)
				}
				for _, v := range vecs[450:475] {
					coll.Insert(v)
					shrd.Insert(v)
				}
				coll.InsertBatch(vecs[475:])
				shrd.InsertBatch(vecs[475:])
				if coll.N() != shrd.N() {
					t.Fatalf("N %d vs %d", coll.N(), shrd.N())
				}
				// N_H is content-determined and additive over the partition:
				// the merged value must equal the single index's exactly.
				if a, b := coll.PairsSharingBucket(), shrd.PairsSharingBucket(); a != b {
					t.Fatalf("N_H %d vs %d", a, b)
				}
				for _, tau := range []float64{0.6, 0.85} {
					xa, err := coll.ExactJoinSize(tau)
					if err != nil {
						t.Fatal(err)
					}
					xb, err := shrd.ExactJoinSize(tau)
					if err != nil {
						t.Fatal(err)
					}
					if xa != xb {
						t.Fatalf("tau=%v exact join %d vs %d", tau, xa, xb)
					}
					// J_U consumes only (M, N_H, k): exact equality.
					ja, err := coll.Estimator(AlgoJU, WithEstimatorSeed(3))
					if err != nil {
						t.Fatal(err)
					}
					jb, err := shrd.Estimator(AlgoJU, WithEstimatorSeed(3))
					if err != nil {
						t.Fatal(err)
					}
					va, _ := ja.Estimate(tau)
					vb, _ := jb.Estimate(tau)
					if va != vb {
						t.Fatalf("tau=%v JU %v vs %v", tau, va, vb)
					}
				}
				// Search returns the same candidate vectors (ids differ by
				// encoding, so compare the vectors they name).
				for _, q := range []int{3, 77, 449} {
					want := searchedVectors(coll.SearchSimilar(vecs[q], 0.7), coll.Vector)
					got := searchedVectors(shrd.SearchSimilar(vecs[q], 0.7), shrd.Vector)
					if len(want) != len(got) {
						t.Fatalf("query %d: %d vs %d results", q, len(want), len(got))
					}
					for i := range want {
						if want[i] != got[i] {
							t.Fatalf("query %d: result sets differ", q)
						}
					}
				}
				// Sampled estimators: mean of a few seeded runs within 2× of
				// the exact join size at a threshold with real selectivity.
				exact, err := shrd.ExactJoinSize(0.8)
				if err != nil {
					t.Fatal(err)
				}
				if exact < 10 {
					t.Skipf("degenerate corpus: exact join %d", exact)
				}
				for _, algo := range []Algorithm{AlgoLSHSS, AlgoMedian, AlgoVirtual} {
					var sum float64
					const reps = 9
					for seed := uint64(1); seed <= reps; seed++ {
						e, err := shrd.Estimator(algo, WithEstimatorSeed(seed*131))
						if err != nil {
							t.Fatalf("%s: %v", algo, err)
						}
						v, err := e.Estimate(0.8)
						if err != nil {
							t.Fatalf("%s: %v", algo, err)
						}
						sum += v
					}
					mean := sum / reps
					if ratio := mean / float64(exact); ratio < 0.5 || ratio > 2.0 {
						t.Errorf("%s: mean %.1f vs exact %d (ratio %.2f)", algo, mean, exact, ratio)
					}
				}
			})
		}
	}
}

// searchedVectors renders the vectors behind search-result ids in a sorted
// canonical form, so differently encoded id spaces can be compared.
func searchedVectors(ids []int, vec func(int) Vector) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = vec(id).String()
	}
	sort.Strings(out)
	return out
}

// Sharded serving soak: concurrent writers spread inserts over shards with
// per-insert publication while readers estimate and search. Run under -race
// (the CI race job does). Invariants: versions, N and N_H only move forward,
// and every estimate respects the feasible range of the N the reader
// observed after it.
func TestShardedConcurrentInsertEstimateSearch(t *testing.T) {
	vecs := fixtureVectors(t, 700)
	coll, err := NewSharded(vecs[:300], Options{K: 10, Seed: 17, Shards: 4, PublishEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var inserted atomic.Int64

	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 300 + w; i < len(vecs); i += 4 {
				coll.Insert(vecs[i])
				inserted.Add(1)
			}
		}(w)
	}

	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			var lastN int
			var lastVer, lastNH uint64
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				switch i % 3 {
				case 0:
					est, err := coll.Estimator(AlgoLSHSS,
						WithEstimatorSeed(uint64(r*1000+i+1)), WithSampleBudget(200, 200))
					if err != nil {
						t.Error(err)
						return
					}
					v, err := est.Estimate(0.8)
					if err != nil {
						t.Error(err)
						return
					}
					n := coll.N()
					if max := float64(n) * float64(n-1) / 2; v < 0 || v > max {
						t.Errorf("estimate %v outside [0, %v]", v, max)
						return
					}
				case 1:
					q := vecs[(r*131+i)%len(vecs)]
					for _, id := range coll.SearchSimilar(q, 0.7) {
						if s := coll.ShardOf(id); s < 0 || s >= coll.Shards() {
							t.Errorf("result id %d names shard %d", id, s)
							return
						}
					}
				case 2:
					if n := coll.N(); n < lastN {
						t.Errorf("N went backwards: %d after %d", n, lastN)
						return
					} else {
						lastN = n
					}
					if ver := coll.Version(); ver < lastVer {
						t.Errorf("version went backwards: %d after %d", ver, lastVer)
						return
					} else {
						lastVer = ver
					}
					if nh := uint64(coll.PairsSharingBucket()); nh < lastNH {
						t.Errorf("N_H went backwards: %d after %d", nh, lastNH)
						return
					} else {
						lastNH = nh
					}
				}
			}
		}(r)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	if got, want := coll.N(), 700; got != want {
		t.Fatalf("final N = %d, want %d", got, want)
	}
	if int(inserted.Load()) != 400 {
		t.Fatalf("writers inserted %d, want 400", inserted.Load())
	}
	vers := coll.ShardVersions()
	if len(vers) != 4 {
		t.Fatalf("ShardVersions returned %d entries", len(vers))
	}
}

// Insert returns shard-encoded ids that keep resolving to the inserted
// vector, whatever shard growth happens around them.
func TestShardedInsertIDsStable(t *testing.T) {
	vecs := fixtureVectors(t, 300)
	coll, err := NewSharded(vecs[:100], Options{K: 8, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int, 0, 200)
	for _, v := range vecs[100:] {
		ids = append(ids, coll.Insert(v))
	}
	for i, id := range ids {
		if got, want := coll.Vector(id).String(), vecs[100+i].String(); got != want {
			t.Fatalf("id %d resolves to a different vector", id)
		}
	}
	batch := coll.InsertBatch(vecs[:50])
	for i, id := range batch {
		if got, want := coll.Vector(id).String(), vecs[i].String(); got != want {
			t.Fatalf("batch id %d resolves to a different vector", id)
		}
	}
}

// The exact-joiner cache's forward policy must compare full version
// vectors. Summed versions alias: concurrent captures (4,2) and (3,3)
// cover different corpora but sum equally, and a sum comparison would also
// treat (6,1) as newer than (3,3) although shard 1 regressed. Only
// componentwise dominance may advance the cache.
func TestVersionsAdvanceSumAliasing(t *testing.T) {
	cases := []struct {
		next, prev []uint64
		want       bool
	}{
		{[]uint64{4, 2}, []uint64{3, 3}, false}, // equal sums, incomparable
		{[]uint64{3, 3}, []uint64{4, 2}, false},
		{[]uint64{6, 1}, []uint64{3, 3}, false}, // larger sum, shard 1 regressed
		{[]uint64{3, 3}, []uint64{3, 3}, false}, // equal vector: serve from cache, no adopt
		{[]uint64{4, 3}, []uint64{3, 3}, true},
		{[]uint64{3, 4}, []uint64{3, 3}, true},
		{[]uint64{4, 4}, []uint64{3, 3}, true},
		{[]uint64{4}, []uint64{3, 3}, false}, // shape mismatch never advances
	}
	for _, c := range cases {
		if got := versionsAdvance(c.next, c.prev); got != c.want {
			t.Errorf("versionsAdvance(%v, %v) = %v, want %v", c.next, c.prev, got, c.want)
		}
	}
}

// Regression for the version-sum alias: plant a cache entry whose version
// vector differs from the live one but aliases it by sum (and one that
// dominates it). The planted joiner must never be served — ExactJoinSize
// must answer over the live corpus — and an incomparable or dominating
// cached vector must not be evicted by the incoming capture.
func TestExactJoinerCacheSumAliasRegression(t *testing.T) {
	vecs, err := GenerateDataset(DatasetDBLP, 300, 7)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewSharded(vecs, Options{Seed: 3, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	want, err := c.ExactJoinSize(0.9)
	if err != nil {
		t.Fatal(err)
	}
	real := c.ShardVersions()
	// A joiner over a bogus two-vector corpus: if it is ever served, the
	// count collapses to at most 1.
	bogus := exactjoin.NewJoiner(vecs[:2])
	for _, alias := range [][]uint64{
		{real[0] + 1, real[1] - 1}, // same sum, different vector
		{real[0] + 1, real[1] + 1}, // dominates the live vector
	} {
		c.joinerMu.Lock()
		c.joiner, c.joinerVers, c.joinerGS = bogus, alias, nil
		c.joinerMu.Unlock()
		got, err := c.ExactJoinSize(0.9)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("planted cache vector %v (live %v) was served: got %d, want %d", alias, real, got, want)
		}
		c.joinerMu.Lock()
		kept := slices.Equal(c.joinerVers, alias)
		c.joinerMu.Unlock()
		if !kept {
			t.Fatalf("non-dominated cache vector %v evicted by live capture %v", alias, real)
		}
	}
	// A genuinely newer capture (every shard ≥, one >) replaces the cache.
	c.joinerMu.Lock()
	c.joiner, c.joinerVers, c.joinerGS = bogus, []uint64{real[0] - 1, real[1]}, nil
	c.joinerMu.Unlock()
	if got, err := c.ExactJoinSize(0.9); err != nil || got != want {
		t.Fatalf("ExactJoinSize after stale cache: %d, %v (want %d)", got, err, want)
	}
	c.joinerMu.Lock()
	adopted := slices.Equal(c.joinerVers, real)
	c.joinerMu.Unlock()
	if !adopted {
		t.Fatal("dominating live capture did not advance the cache")
	}
}
