package main

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"strings"
	"syscall"

	"lshjoin"
	"lshjoin/internal/exactjoin"
	"lshjoin/internal/kernel"
)

// corpus is a workload's generated input: the vectors loaded before the op
// phase, and per-client pools of vectors to insert during it. Every pooled
// vector differs from every preloaded vector and from every other pooled
// vector, so each acknowledged insert adds a vector the corpus did not hold.
type corpus struct {
	preload []lshjoin.Vector
	pools   [][]lshjoin.Vector
}

// generate draws n vectors of kind from seed and splits them into the
// preload and clients equal pools of distinct vectors.
func generate(kind lshjoin.DatasetKind, n, preload, clients int, seed uint64) (corpus, error) {
	vs, err := lshjoin.GenerateDataset(kind, n, seed)
	if err != nil {
		return corpus{}, fmt.Errorf("generate %s: %w", kind, err)
	}
	seen := make(map[uint64]bool, n)
	for _, v := range vs[:preload] {
		seen[contentKey(v)] = true
	}
	var fresh []lshjoin.Vector
	for _, v := range vs[preload:] {
		if k := contentKey(v); !seen[k] {
			seen[k] = true
			fresh = append(fresh, v)
		}
	}
	c := corpus{preload: vs[:preload], pools: make([][]lshjoin.Vector, clients)}
	per := len(fresh) / clients
	for i := range c.pools {
		c.pools[i] = fresh[i*per : (i+1)*per]
	}
	return c, nil
}

// contentKey hashes a vector's entries. Equal vectors share a key; a
// collision can only drop a distinct vector from a pool.
func contentKey(v lshjoin.Vector) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, e := range v.Entries() {
		w := math.Float32bits(e.Weight)
		buf = [8]byte{byte(e.Dim), byte(e.Dim >> 8), byte(e.Dim >> 16), byte(e.Dim >> 24),
			byte(w), byte(w >> 8), byte(w >> 16), byte(w >> 24)}
		h.Write(buf[:])
	}
	return h.Sum64()
}

// Accuracy: LSH-SS at fixed estimator seeds against the exact join size,
// over a τ grid.
var accuracyTaus = []float64{0.6, 0.7, 0.8, 0.9}

const accuracySeeds = 8

// relError returns the mean |est − exact| / exact over accuracySeeds
// estimator seeds and accuracyTaus, the exact sizes coming from one
// exactjoin pass over vs. estimate(seed) returns the estimates of one
// estimator built with that seed, one per τ of accuracyTaus in order.
func relError(vs []lshjoin.Vector, estimate func(seed uint64) ([]float64, error)) (float64, error) {
	exact, err := exactjoin.NewJoiner(vs).Counts(accuracyTaus)
	if err != nil {
		return 0, err
	}
	sum, n := 0.0, 0
	for seed := uint64(1); seed <= accuracySeeds; seed++ {
		ests, err := estimate(seed)
		if err != nil {
			return 0, err
		}
		for i, e := range ests {
			if exact[i] == 0 {
				return 0, fmt.Errorf("exact join size at τ=%v is 0; the accuracy probe needs a non-empty join", accuracyTaus[i])
			}
			sum += math.Abs(e-float64(exact[i])) / float64(exact[i])
			n++
		}
	}
	return sum / float64(n), nil
}

// estimateGrid builds one seeded LSH-SS estimator (default budgets) and
// estimates every τ of accuracyTaus with it, in order.
func estimateGrid(build func(...lshjoin.EstimatorOption) (lshjoin.Estimator, error), seed uint64) ([]float64, error) {
	e, err := build(lshjoin.WithEstimatorSeed(seed))
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(accuracyTaus))
	for i, tau := range accuracyTaus {
		if out[i], err = e.Estimate(tau); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// hostInfo stamps a result with the host and the run.
type hostInfo struct {
	Go         string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu"`
	Kernels    string `json:"kernels"` // "avx2" when the AVX2 signing kernels run, else the Go fallback
	StoreFS    string `json:"store_fs"`
	Flush      string `json:"flush"`
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
}

func fingerprint(cfg config, storeDir string) hostInfo {
	flush := "none (in-memory)"
	if cfg.workload == "durable_ingest" {
		flush = "fsync per publish, PublishEvery=32, background checkpoint at 4 MiB of log"
	}
	return hostInfo{
		Go:         runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPU:        cpuModel(),
		Kernels:    kernel.Impl,
		StoreFS:    fsType(storeDir),
		Flush:      flush,
		Workload:   cfg.workload,
		Seed:       cfg.seed,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir, from its statfs magic.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xef53:
		return "ext2/3/4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}
