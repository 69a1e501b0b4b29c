package main

import (
	"testing"
	"time"
)

func TestSelfTimesSubtractsCoveredChildTime(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{name: "lshjoin.estimate", parent: -1, start: 0, end: 100 * ms},
		// Two overlapping children (parallel shard fetches) cover 10..50.
		{name: "shardrpc.snapshot", parent: 0, start: 10 * ms, end: 40 * ms},
		{name: "shardrpc.snapshot", parent: 0, start: 20 * ms, end: 50 * ms},
		// A child partly outside its parent counts only inside it.
		{name: "core.sample", parent: 0, start: 90 * ms, end: 120 * ms},
		// A grandchild is subtracted from its own parent only.
		{name: "persist.decode", parent: 1, start: 15 * ms, end: 25 * ms},
	}
	got := selfTimes(spans)
	want := []time.Duration{50 * ms, 20 * ms, 30 * ms, 30 * ms, 10 * ms}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%s): self %v, want %v", i, spans[i].name, got[i], want[i])
		}
	}
	layers := byLayer(spans)
	if l := layers["shardrpc"]; l.calls != 2 || l.self != 50*ms {
		t.Errorf("shardrpc layer: %d calls, self %v; want 2 calls, 50ms", l.calls, l.self)
	}
}

func TestLatencyIsNearestRank(t *testing.T) {
	var lat []time.Duration
	for i := 10; i >= 1; i-- {
		lat = append(lat, time.Duration(i)*time.Millisecond)
	}
	for _, c := range []struct{ p, want float64 }{{0.5, 5}, {0.9, 9}, {0.91, 10}, {0, 1}} {
		if got := latencyMs(lat, c.p); got != c.want {
			t.Errorf("latencyMs(p=%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := latencyMs(nil, 0.5); got != 0 {
		t.Errorf("latencyMs of no samples = %v, want 0", got)
	}
}

func TestDeckDealsExactSharesInSeededOrder(t *testing.T) {
	m := mix{opEstimate: 1, opSearch: 4, opInsert: 8}
	a := &deck{mix: m, rng: clientRNG(9, 0)}
	b := &deck{mix: m, rng: clientRNG(9, 0)}
	var counts [numOps]int
	for i := 0; i < 13*100; i++ {
		k := a.next()
		if k != b.next() {
			t.Fatal("equal seeds dealt different op sequences")
		}
		counts[k]++
	}
	for k, w := range m {
		if counts[k] != w*100 {
			t.Errorf("%s dealt %d times in 100 rounds, want %d", opNames[k], counts[k], w*100)
		}
	}
}
