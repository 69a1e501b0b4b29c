package lshjoin

import (
	"testing"
)

// goldenFront is the read surface Collection and ShardedCollection share.
type goldenFront interface {
	Estimator(Algorithm, ...EstimatorOption) (Estimator, error)
	EstimateJoinSize(float64) (float64, error)
	EstimateJoinSizeCurve([]float64) ([]float64, error)
	PairsSharingBucket() int64
	ExactJoinSize(float64) (int64, error)
}

// frontGolden is what one front end answers over the golden workload.
type frontGolden struct {
	seeded   []float64 // Algorithms() in order, WithEstimatorSeed(41), τ = 0.3
	unseeded []float64 // three EstimateJoinSize(0.4) calls: the nextSeed stream
	curve    []float64 // EstimateJoinSizeCurve(goldenCurveTaus), after unseeded
	nh       int64     // PairsSharingBucket
	exact    int64     // ExactJoinSize(0.3)
}

var goldenCurveTaus = []float64{0.2, 0.4, 0.6}

// goldenFrontEnds pins the golden workload's answers as recorded before the
// three front ends were collapsed onto one capture source. Once Collection
// is the single-shard case of the shared read path, the draw-for-draw
// equivalence tests compare that path with itself; these values are the
// independent proof that estimator streams, seeds and statistics did not
// move.
var goldenFrontEnds = map[string]frontGolden{
	"collection": {
		seeded:   []float64{53.06818181818182, 146.3540404040404, 1317, 435.0450450450451, 4399.789086269613, 10969.011635482268, 0, 0, 64.4, 247.8875},
		unseeded: []float64{29.53409090909091, 35.747727272727275, 11.213636363636363},
		curve:    []float64{11626.36909090909, 10.213636363636363, 0},
		nh:       2247,
		exact:    1084,
	},
	"sharded-3": {
		seeded:   []float64{55.06818181818182, 432.2116161616161, 878, 2755.285285285285, 3854.7514845972296, 10969.011635482268, 0, 0, 67.28181818181818, 349.7522727272727},
		unseeded: []float64{6.1068181818181815, 22.427272727272726, 5.1068181818181815},
		curve:    []float64{13008.647014925373, 15.320454545454545, 0},
		nh:       2247,
		exact:    1084,
	},
}

// runGoldenFront drives the golden reads, in a fixed order, over f.
func runGoldenFront(t *testing.T, f goldenFront) frontGolden {
	t.Helper()
	var g frontGolden
	for _, algo := range Algorithms() {
		est, err := f.Estimator(algo, WithEstimatorSeed(41))
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		v, err := est.Estimate(0.3)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		g.seeded = append(g.seeded, v)
	}
	for i := 0; i < 3; i++ {
		v, err := f.EstimateJoinSize(0.4)
		if err != nil {
			t.Fatal(err)
		}
		g.unseeded = append(g.unseeded, v)
	}
	curve, err := f.EstimateJoinSizeCurve(goldenCurveTaus)
	if err != nil {
		t.Fatal(err)
	}
	g.curve = curve
	g.nh = f.PairsSharingBucket()
	if g.exact, err = f.ExactJoinSize(0.3); err != nil {
		t.Fatal(err)
	}
	return g
}

// TestFrontEndSeedStreamGolden pins exact seeded and unseeded estimates,
// the curve, N_H and the exact join for Collection and a three-shard
// ShardedCollection after single and batched inserts under a publish
// policy.
func TestFrontEndSeedStreamGolden(t *testing.T) {
	vecs := fixtureVectors(t, 440)
	opt := Options{K: 6, Tables: 3, Seed: 5, PublishEvery: 7}
	coll, err := New(vecs[:400], opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Shards = 3
	shrd, err := NewSharded(vecs[:400], opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vecs[400:410] {
		coll.Insert(v)
		shrd.Insert(v)
	}
	if first := coll.InsertBatch(vecs[410:]); first != 410 {
		t.Fatalf("batch first id %d, want 410", first)
	}
	shrd.InsertBatch(vecs[410:])
	for name, f := range map[string]goldenFront{"collection": coll, "sharded-3": shrd} {
		got := runGoldenFront(t, f)
		want := goldenFrontEnds[name]
		if !floatsIdentical(got.seeded, want.seeded) {
			t.Errorf("%s: seeded estimates %v, pinned %v", name, got.seeded, want.seeded)
		}
		if !floatsIdentical(got.unseeded, want.unseeded) {
			t.Errorf("%s: unseeded estimates %v, pinned %v", name, got.unseeded, want.unseeded)
		}
		if !floatsIdentical(got.curve, want.curve) {
			t.Errorf("%s: curve %v, pinned %v", name, got.curve, want.curve)
		}
		if got.nh != want.nh || got.exact != want.exact {
			t.Errorf("%s: N_H %d exact %d, pinned %d and %d", name, got.nh, got.exact, want.nh, want.exact)
		}
	}
}

// floatsIdentical reports whether a and b hold the same values bit for bit.
func floatsIdentical(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
