package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"lshjoin/internal/dataset"
)

// tinySuite keeps integration tests fast: small collections, few reps.
func tinySuite() *Suite {
	return NewSuite(Config{DBLPN: 1500, NYTN: 500, PubMedN: 600, Reps: 5, Seed: 7})
}

func TestEnvTruthCaching(t *testing.T) {
	s := tinySuite()
	env, err := s.Env(dataset.DBLP, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	a, err := env.TruthAt(0.5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := env.TruthAt(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("cached truth changed: %d vs %d", a, b)
	}
	multi, err := env.Truth(0.3, 0.5, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if multi[0.5] != a {
		t.Errorf("grid truth %d disagrees with single %d", multi[0.5], a)
	}
	if multi[0.3] < multi[0.5] || multi[0.5] < multi[0.9] {
		t.Errorf("truth not monotone: %v", multi)
	}
}

func TestEnvReuse(t *testing.T) {
	s := tinySuite()
	a, err := s.Env(dataset.DBLP, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Env(dataset.DBLP, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("same (kind,k,ℓ) should reuse the environment")
	}
	c, err := s.Env(dataset.DBLP, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Error("different k must build a separate environment")
	}
}

func TestStratumTruthConsistency(t *testing.T) {
	s := tinySuite()
	env, err := s.Env(dataset.DBLP, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	taus := []float64{0.3, 0.7}
	jh := env.StratumTruth(0, taus)
	truths, err := env.Truth(taus...)
	if err != nil {
		t.Fatal(err)
	}
	for _, tau := range taus {
		if jh[tau] > truths[tau] {
			t.Errorf("τ=%v: J_H=%d exceeds J=%d", tau, jh[tau], truths[tau])
		}
		if jh[tau] > env.Snap.Table(0).NH() {
			t.Errorf("τ=%v: J_H=%d exceeds N_H=%d", tau, jh[tau], env.Snap.Table(0).NH())
		}
	}
	if jh[0.3] < jh[0.7] {
		t.Errorf("J_H not monotone: %v", jh)
	}
}

func TestRegistryCoversDesignIndex(t *testing.T) {
	want := []string{
		"table1", "joinsize", "fig2", "fig3", "fig4", "space", "runtime",
		"fig5", "fig6", "fig7", "fig8", "cs", "fig9", "table2", "build", "ablation",
	}
	reg := Registry()
	for _, id := range want {
		if _, ok := reg[id]; !ok {
			t.Errorf("experiment %q missing from registry", id)
		}
	}
	if len(reg) != len(want) {
		t.Errorf("registry has %d entries, DESIGN.md indexes %d", len(reg), len(want))
	}
}

// experimentRowDigests pins the rendered rows of every experiment at the tiny
// suite (seed 7) by SHA-256, so a refactor of the estimator layer cannot move
// the paper's tables unnoticed. The experiments in timedExperiments carry
// wall-clock time in their rows and are only checked for shape.
var experimentRowDigests = map[string]string{
	"ablation": "f13656e61e3037f37bcb241cd3fa5412d96c1d9d70a7425860861a7b1566cfaa",
	"cs":       "fb67449501ca2a701b121a5f151eac4d247b353e388dde0c00c7d694048f800c",
	"fig2":     "9c19fc7d72fe925235f4c90b3fb9f38d34f5dccbd60a0dcd5df7bb250489e117",
	"fig3":     "88c5ec731a9bb366f2071dc1166863d98af52c1086155afcb60517e083abe9ef",
	"fig4":     "280e20db69b21a554901ade3507eea49c4316818646d5d1b89f3b0829729f3ed",
	"fig5":     "5c71e22a6fe3bc1e71b074d4bffc3444c07f63c8ec60b76b85d2a0dd32537726",
	"fig6":     "5c71e22a6fe3bc1e71b074d4bffc3444c07f63c8ec60b76b85d2a0dd32537726",
	"fig7":     "758e4c86751f9ebaf6980fb67fd1c63b0ebefb052e60a0e4773460849b5ff09c",
	"fig8":     "758e4c86751f9ebaf6980fb67fd1c63b0ebefb052e60a0e4773460849b5ff09c",
	"fig9":     "030bc9c90e51f6116eac0b1b495185ec038d3727aaed4c7e22e82fadac7a74f5",
	"joinsize": "c519cae7f89c477967d50f1b663caa8e3b9efd9ee78c227ffef2b81bb81bd97a",
	"space":    "39eb63038a8ad2ac2af81c0209755b7ab2aa68e31b49c27e21b1b75b5584fe48",
	"table1":   "b21522e98e8db3c94f5edaeb79899ce97f15c420afedd0207e59a555b737887e",
	"table2":   "456f374f76e2f40b85e09fc5fe90dfb8e5ce0d99b507f936d284cf516be93994",
}

var timedExperiments = map[string]bool{"build": true, "runtime": true}

// rowDigest hashes the row cells of tables in order; cells are separated by
// 0x1f, rows by newlines and tables by their id and title.
func rowDigest(tables []*Table) string {
	h := sha256.New()
	for _, tab := range tables {
		h.Write([]byte("### " + tab.ID + " " + tab.Title + "\n"))
		for _, row := range tab.Rows {
			h.Write([]byte(strings.Join(row, "\x1f") + "\n"))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestEachExperimentRuns executes every registered experiment at tiny scale,
// sanity-checks the rendered output and compares each timing-free
// experiment's rows against its recorded digest.
func TestEachExperimentRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment run")
	}
	s := tinySuite()
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			tables, err := Registry()[id](s)
			if err != nil {
				t.Fatal(err)
			}
			if len(tables) == 0 {
				t.Fatal("experiment produced no tables")
			}
			for _, tab := range tables {
				if tab.ID == "" || tab.Title == "" || len(tab.Columns) == 0 {
					t.Errorf("malformed table: %+v", tab)
				}
				if len(tab.Rows) == 0 {
					t.Errorf("table %q has no rows", tab.Title)
				}
				for _, row := range tab.Rows {
					if len(row) != len(tab.Columns) {
						t.Errorf("table %q: row width %d != %d columns", tab.Title, len(row), len(tab.Columns))
					}
				}
				var buf bytes.Buffer
				if err := tab.Render(&buf); err != nil {
					t.Fatal(err)
				}
				if !strings.Contains(buf.String(), tab.Title) {
					t.Error("render lost the title")
				}
			}
			if timedExperiments[id] {
				return
			}
			want, ok := experimentRowDigests[id]
			if got := rowDigest(tables); !ok || got != want {
				t.Errorf("rows digest %s, want %q", got, want)
			}
		})
	}
}

func TestRenderFormatting(t *testing.T) {
	tab := &Table{
		ID:      "x",
		Title:   "demo",
		Columns: []string{"a", "long-column"},
		Rows:    [][]string{{"1", "2"}, {"333333", "4"}},
		Notes:   []string{"a note"},
	}
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"### [x] demo", "| a ", "long-column", "> a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestFormatHelpers(t *testing.T) {
	if fnum(0) != "0" {
		t.Error("fnum(0)")
	}
	if fpct(0.5) != "+50.0%" {
		t.Errorf("fpct = %q", fpct(0.5))
	}
	if ftau(0.30000001) != "0.3" {
		t.Errorf("ftau = %q", ftau(0.3))
	}
	if fint(42) != "42" {
		t.Errorf("fint = %q", fint(42))
	}
}

func TestConfigDefaults(t *testing.T) {
	s := NewSuite(Config{})
	cfg := s.Config()
	if cfg.DBLPN != 20000 || cfg.NYTN != 5000 || cfg.PubMedN != 8000 || cfg.Reps != 50 || cfg.Seed != 42 {
		t.Errorf("defaults: %+v", cfg)
	}
}
