package verify

import (
	"encoding/binary"
	"hash/fnv"
	"runtime"
	"slices"
	"testing"

	"drp/internal/sparse"
)

// sparseOutcome is what the sparse-shards check solves to on one instance.
type sparseOutcome struct {
	cost   int64
	evals  int
	digest uint64
}

// assignmentDigest is the FNV-1a digest of every object's replica sites in
// ascending order, each object closed by an all-ones word.
func assignmentDigest(a *sparse.Assignment, objects int) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for k := 0; k < objects; k++ {
		sites := slices.Clone(a.Replicators(k))
		slices.Sort(sites)
		for _, i := range sites {
			put(uint64(i))
		}
		put(^uint64(0))
	}
	return h.Sum64()
}

// TestSparseShardsMatchAcrossGOMAXPROCS runs the sparse-shards check's
// solve over seeded soak streams at GOMAXPROCS 1, 2 and 8: each instance
// reaches the same cost, evaluation count and placement at every setting.
// The check itself compares two runs at one setting, so this is what holds
// the sharded solve to a result independent of the worker count. The
// second stream's instances give every worker many objects, so scratch
// carried from one object to the next would show.
func TestSparseShardsMatchAcrossGOMAXPROCS(t *testing.T) {
	idx := slices.Index(checkNames(), "sparse-shards")
	if idx < 0 {
		t.Fatal("sparse-shards is not registered")
	}
	streams := []struct {
		seed       uint64
		iterations int
		maxM, maxN int
	}{
		{seed: 11, iterations: 24, maxM: defaultMaxSites, maxN: defaultMaxObjects},
		{seed: 12, iterations: 6, maxM: 40, maxN: 400},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, st := range streams {
		var ref []sparseOutcome
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			got := make([]sparseOutcome, st.iterations)
			for it := range got {
				seed := instSeed(st.seed, it)
				p, err := genGeneral(seed, st.maxM, st.maxN)
				if err != nil {
					t.Fatal(err)
				}
				mo, err := sparse.FromProblem(p)
				if err != nil {
					t.Fatal(err)
				}
				res, err := solveSparseChecked(newCtx(p, checkSeed(seed, idx), nil), mo)
				if err != nil {
					t.Fatalf("stream %d instance %d, GOMAXPROCS %d: %v", st.seed, it, procs, err)
				}
				got[it] = sparseOutcome{res.Cost, res.Stats.Evaluations, assignmentDigest(res.Assignment, p.Objects())}
			}
			if ref == nil {
				ref = got
				continue
			}
			for it := range got {
				if got[it] != ref[it] {
					t.Errorf("stream %d instance %d: GOMAXPROCS %d gives cost/evals/digest %+v, GOMAXPROCS 1 %+v",
						st.seed, it, procs, got[it], ref[it])
				}
			}
		}
	}
}
