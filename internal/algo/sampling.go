package algo

import "math/rand"

// Sampling methods used by the Sample operator. All methods are
// deterministic given their seed, so experiments are reproducible.

// BernoulliSample keeps each quantum independently with probability p.
func BernoulliSample(data []any, p float64, seed int64) []any {
	if p >= 1 {
		return data
	}
	if p <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]any, 0, int(float64(len(data))*p)+1)
	for _, q := range data {
		if rng.Float64() < p {
			out = append(out, q)
		}
	}
	return out
}

// ReservoirSample draws a uniform random sample of exactly min(k, n) quanta
// using reservoir sampling (one pass, O(n)).
func ReservoirSample(data []any, k int, seed int64) []any {
	if k <= 0 {
		return nil
	}
	if k >= len(data) {
		out := make([]any, len(data))
		copy(out, data)
		return out
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]any, k)
	copy(out, data[:k])
	for i := k; i < len(data); i++ {
		if j := rng.Intn(i + 1); j < k {
			out[j] = data[i]
		}
	}
	return out
}

// ShuffleFirstSample is the sampler contributed for ML4all in the paper: one
// seeded index permutation, then consecutive windows of it. Successive Draw
// calls with increasing round values return successive windows of the same
// shuffle. The permutation depends on the input length and the seed alone, so
// one sampler serves every input of its length: building it costs O(n) and a
// Draw O(k). driverutil.Sample keeps one per loop run (core.LoopRun), so a
// loop pays the permutation once, not once per round.
type ShuffleFirstSample struct {
	perm []int
}

// NewShuffleFirstSample prepares the one-time permutation of n positions.
func NewShuffleFirstSample(n int, seed int64) *ShuffleFirstSample {
	rng := rand.New(rand.NewSource(seed))
	return &ShuffleFirstSample{perm: rng.Perm(n)}
}

// Len is the input length the permutation was built for.
func (s *ShuffleFirstSample) Len() int { return len(s.perm) }

// Draw returns data's k-quantum window for the given round, wrapping around
// the permutation as needed; data must hold Len() quanta.
func (s *ShuffleFirstSample) Draw(data []any, k, round int) []any {
	n := len(s.perm)
	if n == 0 || k <= 0 {
		return nil
	}
	if k > n {
		k = n
	}
	out := make([]any, k)
	start := (round * k) % n
	for i := 0; i < k; i++ {
		out[i] = data[s.perm[(start+i)%n]]
	}
	return out
}
