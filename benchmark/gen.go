package main

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"

	"naiad/internal/workload"
)

// Every input the benchmark feeds is a pure function of -seed, generated
// here and nowhere else. The program under test receives only the
// generated records; the seed itself never crosses into naiad/internal.

const (
	// recordsPerEpoch is one keycount epoch: large enough that a worker's
	// share fills two exchange batches, small enough that an epoch is a
	// latency sample (milliseconds), not a job.
	recordsPerEpoch = 32768
	// keySpace and zipfS shape the key skew: Zipf(1.1) over 2^8 keys, so
	// every epoch touches all of a small set of hot and cold keys and the
	// sink seals a ~5 KB batch (README.md, sizing, says why not 2^16).
	keySpace = 1 << 8
	zipfS    = 1.1
	// ringEpochs distinct input epochs are generated; feeds cycle through
	// them, so a run of any length has a closed-form expected output.
	ringEpochs = 64

	// loopChains × loopLength is the WCC input: many short-lived label
	// waves early, then ~loopLength iterations that each move a handful of
	// records — the coordination-bound regime.
	loopChains = 8

	// doorBatch records per door Send; doorKeys distinct keys per client.
	doorBatch = 64
	doorKeys  = 16
)

// zipfRing generates ringEpochs epochs of recordsPerEpoch Zipf-distributed
// keys.
func zipfRing(seed int64) [][]int64 {
	r := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(r, zipfS, 1, keySpace-1)
	ring := make([][]int64, ringEpochs)
	for e := range ring {
		keys := make([]int64, recordsPerEpoch)
		for i := range keys {
			keys[i] = int64(z.Uint64())
		}
		ring[e] = keys
	}
	return ring
}

// keyCounts is the reference keycount of one epoch.
func keyCounts(keys []int64) map[int64]int64 {
	m := make(map[int64]int64)
	for _, k := range keys {
		m[k]++
	}
	return m
}

// permutedChains generates `chains` disjoint path graphs of `length` nodes
// whose node ids are a seed-driven permutation along each path. A random
// labelling makes min-label propagation improve each node only ~ln(length)
// times while still needing up to `length` iterations for the minimum to
// reach the far end, so late iterations move a handful of records each.
// It also returns the closed-form iteration count: the distance each chain's
// minimum has to travel.
func permutedChains(seed int64, chains, length int) (edges []workload.Edge, iters int) {
	r := rand.New(rand.NewSource(seed ^ 0x5eed_c4a1))
	edges = make([]workload.Edge, 0, chains*(length-1))
	for c := 0; c < chains; c++ {
		base := int64(c * length)
		perm := r.Perm(length)
		for p, id := range perm {
			if id == 0 {
				// The chain's minimum starts at the head, so every seed's
				// wave travels the same length-1 hops.
				perm[0], perm[p] = perm[p], perm[0]
				break
			}
		}
		iters = length - 1
		for p := 0; p+1 < length; p++ {
			edges = append(edges, workload.Edge{Src: base + int64(perm[p]), Dst: base + int64(perm[p+1])})
		}
	}
	return edges, iters
}

// crashPlan yields the epochs after which worker 1 is crashed. Recovery time
// grows linearly with the epochs replayed since the last cut (3 ms just after
// one, 17 ms just before the next), so which points of the cut cycle a run
// happens to sample would move its median more than any change to the
// system. The plan therefore visits every point of the cycle equally often:
// the seed draws a fresh permutation of the cutEvery residues for each round,
// and each crash lands on the first epoch with the next residue that is at
// least crashGapMin epochs after the previous crash.
type crashPlan struct {
	r       *rand.Rand
	offsets []int
}

func newCrashPlan(seed int64) *crashPlan {
	return &crashPlan{r: rand.New(rand.NewSource(seed ^ 0x0c2a_5e11))}
}

// next returns the crash epoch that follows the crash (or start) at prev.
func (p *crashPlan) next(prev int64) int64 {
	if len(p.offsets) == 0 {
		p.offsets = p.r.Perm(cutEvery)
	}
	o := int64(p.offsets[0])
	p.offsets = p.offsets[1:]
	e := prev + crashGapMin
	return e + (o-e%cutEvery+cutEvery)%cutEvery
}

// doorOp is one closed-loop door operation: the records to send, the key to
// read back, and the count the read must return (the key's occurrences in
// this batch — the dataflow counts per epoch and one Send lands in one
// epoch).
type doorOp struct {
	keys []int64
	read int64
	want int64
}

// doorGen yields one client's operations. Clients own disjoint key ranges,
// so each read's expected value depends only on the client's own writes.
type doorGen struct {
	r    *rand.Rand
	base int64
}

func newDoorGen(seed int64, client int) *doorGen {
	return &doorGen{
		r:    rand.New(rand.NewSource(seed ^ int64(0x0d00_4000+client))),
		base: int64(client+1) << 32,
	}
}

func (g *doorGen) next() doorOp {
	op := doorOp{keys: make([]int64, doorBatch)}
	for i := range op.keys {
		op.keys[i] = g.base + int64(g.r.Intn(doorKeys))
	}
	op.read = op.keys[g.r.Intn(doorBatch)]
	for _, k := range op.keys {
		if k == op.read {
			op.want++
		}
	}
	return op
}

// inputHash digests everything a seed generates, for the pinning test and
// the run header: two runs that print the same hash fed the same inputs.
func inputHash(seed int64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	for _, keys := range zipfRing(seed) {
		for _, k := range keys {
			put(k)
		}
	}
	edges, iters := permutedChains(seed, loopChains, 128)
	for _, e := range edges {
		put(e.Src)
		put(e.Dst)
	}
	put(int64(iters))
	plan := newCrashPlan(seed)
	for i, e := 0, int64(0); i < 64; i++ {
		e = plan.next(e)
		put(e)
	}
	for c := 0; c < 2; c++ {
		g := newDoorGen(seed, c)
		for i := 0; i < 64; i++ {
			op := g.next()
			for _, k := range op.keys {
				put(k)
			}
			put(op.read)
			put(op.want)
		}
	}
	return h.Sum64()
}
