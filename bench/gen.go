package main

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// Every input the program sees is generated here from the seed; each
// generator derives its own stream (seed + a fixed offset) so adding a
// draw to one never shifts another.
const (
	streamImages = iota + 1
	streamPicks
	streamSchedule
	streamRotation
	streamSplit // + config index: the stochastic plan configs' Rng
	streamTrain = 100
	streamData  = 101
	streamProbe = 102
)

func stream(seed int64, s int) *rand.Rand { return rand.New(rand.NewSource(seed*1000 + int64(s))) }

// imagePool draws n flattened images of N(0,1) pixels.
func imagePool(seed int64, n, length int) [][]float32 {
	rng := stream(seed, streamImages)
	pool := make([][]float32, n)
	for i := range pool {
		img := make([]float32, length)
		for j := range img {
			img[j] = float32(rng.NormFloat64())
		}
		pool[i] = img
	}
	return pool
}

// pickSequence draws which pool image request i sends; request loops
// index it modulo its length, so a time-bounded run never runs out.
func pickSequence(seed int64, n, pool int) []int {
	rng := stream(seed, streamPicks)
	p := make([]int, n)
	for i := range p {
		p[i] = rng.Intn(pool)
	}
	return p
}

// poissonSchedule draws the due times (offsets from the start of the run,
// ascending) of a Poisson process of the given rate over d, conditioned on
// its count being rate·d: that many independent uniform arrival times.
// Fixing the count keeps the offered load the same for every seed; the
// gaps between arrivals stay exponential.
func poissonSchedule(seed int64, rate float64, d time.Duration) []time.Duration {
	rng := stream(seed, streamSchedule)
	due := make([]time.Duration, int(math.Round(rate*d.Seconds())))
	for i := range due {
		due[i] = time.Duration(rng.Float64() * float64(d))
	}
	sort.Slice(due, func(a, b int) bool { return due[a] < due[b] })
	return due
}

// rotation concatenates `blocks` seeded permutations of 0..k-1, so every
// window of k ops visits each config once, in an order the seed picks.
func rotation(seed int64, k, blocks int) []int {
	rng := stream(seed, streamRotation)
	out := make([]int, 0, k*blocks)
	for b := 0; b < blocks; b++ {
		out = append(out, rng.Perm(k)...)
	}
	return out
}
