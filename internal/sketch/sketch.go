// Package sketch implements the probabilistic data structures the paper
// identifies as shareable components across data plane defenses (§3.1):
// count-min sketches, bloom filters, a HashPipe-style heavy-hitter table,
// EWMA rate estimators, and a per-flow connection table. All structures are
// sized explicitly in entries so the resource model can charge them against
// switch SRAM budgets.
package sketch

import (
	"fmt"
)

// mix is a cheap 64-bit hash finalizer (splitmix64) used to derive the d
// independent hash functions of a sketch from one input hash.
func mix(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

func deriveHash(h uint64, row int) uint64 {
	return mix(h + uint64(row)*0x9e3779b97f4a7c15)
}

// CountMin is a count-min sketch: d rows of w counters. Estimates never
// undercount; overcounting is bounded by the usual CM guarantees.
type CountMin struct {
	rows, width int
	counters    []uint64
}

// NewCountMin returns a sketch with the given depth (rows) and width.
func NewCountMin(rows, width int) *CountMin {
	if rows <= 0 || width <= 0 {
		panic(fmt.Sprintf("sketch: invalid count-min dims %dx%d", rows, width))
	}
	return &CountMin{rows: rows, width: width, counters: make([]uint64, rows*width)}
}

// Add increments the item's count by n and returns the new estimate.
func (c *CountMin) Add(hash uint64, n uint64) uint64 {
	est := ^uint64(0)
	for r := 0; r < c.rows; r++ {
		i := r*c.width + int(deriveHash(hash, r)%uint64(c.width))
		c.counters[i] += n
		if c.counters[i] < est {
			est = c.counters[i]
		}
	}
	return est
}

// Estimate returns the item's estimated count.
func (c *CountMin) Estimate(hash uint64) uint64 {
	est := ^uint64(0)
	for r := 0; r < c.rows; r++ {
		v := c.counters[r*c.width+int(deriveHash(hash, r)%uint64(c.width))]
		if v < est {
			est = v
		}
	}
	return est
}

// Reset zeroes all counters (epoch rollover).
func (c *CountMin) Reset() {
	for i := range c.counters {
		c.counters[i] = 0
	}
}

// Bytes returns the SRAM footprint charged by the resource model.
func (c *CountMin) Bytes() int { return len(c.counters) * 8 }

// Bloom is a blocked bloom filter over 64-bit item hashes.
type Bloom struct {
	bits []uint64
	k    int
	n    uint64 // bit count
}

// NewBloom returns a filter with nbits bits and k hash functions.
func NewBloom(nbits, k int) *Bloom {
	if nbits <= 0 || k <= 0 {
		panic(fmt.Sprintf("sketch: invalid bloom params %d/%d", nbits, k))
	}
	words := (nbits + 63) / 64
	return &Bloom{bits: make([]uint64, words), k: k, n: uint64(words * 64)}
}

// Add inserts the item.
func (b *Bloom) Add(hash uint64) {
	for i := 0; i < b.k; i++ {
		bit := deriveHash(hash, i) % b.n
		b.bits[bit/64] |= 1 << (bit % 64)
	}
}

// Contains reports whether the item may have been added (no false
// negatives; false positives at the usual bloom rate).
func (b *Bloom) Contains(hash uint64) bool {
	for i := 0; i < b.k; i++ {
		bit := deriveHash(hash, i) % b.n
		if b.bits[bit/64]&(1<<(bit%64)) == 0 {
			return false
		}
	}
	return true
}

// Reset clears the filter.
func (b *Bloom) Reset() {
	for i := range b.bits {
		b.bits[i] = 0
	}
}

// Bytes returns the SRAM footprint.
func (b *Bloom) Bytes() int { return len(b.bits) * 8 }

// HeavyEntry is one slot of a HashPipe stage.
type HeavyEntry struct {
	Hash  uint64
	Count uint64
	Valid bool
}

// HashPipe is the multi-stage heavy-hitter table of Sivaraman et al. (SOSR
// '17), the volumetric-DDoS detector the paper cites. Each stage is a
// hash-indexed array; new items evict lighter entries stage by stage, so
// heavy flows settle into the pipe while mice wash out.
type HashPipe struct {
	stages [][]HeavyEntry
	width  int
}

// NewHashPipe returns a pipe with the given number of stages and per-stage
// slot count.
func NewHashPipe(stages, width int) *HashPipe {
	if stages <= 0 || width <= 0 {
		panic(fmt.Sprintf("sketch: invalid hashpipe dims %dx%d", stages, width))
	}
	hp := &HashPipe{width: width}
	for i := 0; i < stages; i++ {
		hp.stages = append(hp.stages, make([]HeavyEntry, width))
	}
	return hp
}

// Add records one occurrence of the item and returns its tracked count if
// the item currently occupies a slot (0 if it was squeezed out).
func (hp *HashPipe) Add(hash uint64) uint64 {
	// Stage 0: always insert; kick the incumbent into the carry.
	idx := int(deriveHash(hash, 0) % uint64(hp.width))
	e := &hp.stages[0][idx]
	if e.Valid && e.Hash == hash {
		e.Count++
		return e.Count
	}
	carry := *e
	*e = HeavyEntry{Hash: hash, Count: 1, Valid: true}
	if !carry.Valid {
		return 1
	}
	// Later stages: merge on match, evict smaller counts, else carry on.
	for s := 1; s < len(hp.stages); s++ {
		idx := int(deriveHash(carry.Hash, s) % uint64(hp.width))
		e := &hp.stages[s][idx]
		switch {
		case e.Valid && e.Hash == carry.Hash:
			e.Count += carry.Count
			return 1
		case !e.Valid:
			*e = carry
			return 1
		case e.Count < carry.Count:
			carry, *e = *e, carry
		}
	}
	return 1 // carry squeezed out of the pipe
}

// Estimate returns the summed count tracked for the item across stages.
func (hp *HashPipe) Estimate(hash uint64) uint64 {
	var total uint64
	for s := range hp.stages {
		e := hp.stages[s][int(deriveHash(hash, s)%uint64(hp.width))]
		if e.Valid && e.Hash == hash {
			total += e.Count
		}
	}
	return total
}

// Top returns up to k tracked entries with the largest counts, heaviest
// first. Entries for the same hash in multiple stages are merged.
func (hp *HashPipe) Top(k int) []HeavyEntry {
	merged := make(map[uint64]uint64)
	for _, st := range hp.stages {
		for _, e := range st {
			if e.Valid {
				merged[e.Hash] += e.Count
			}
		}
	}
	out := make([]HeavyEntry, 0, len(merged))
	for h, c := range merged {
		out = append(out, HeavyEntry{Hash: h, Count: c, Valid: true})
	}
	// Insertion sort: k and the table are small.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && (out[j].Count > out[j-1].Count ||
			(out[j].Count == out[j-1].Count && out[j].Hash < out[j-1].Hash)); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// Reset clears all stages.
func (hp *HashPipe) Reset() {
	for s := range hp.stages {
		for i := range hp.stages[s] {
			hp.stages[s][i] = HeavyEntry{}
		}
	}
}

// Bytes returns the SRAM footprint.
func (hp *HashPipe) Bytes() int { return len(hp.stages) * hp.width * 17 }

// EWMA is an exponentially weighted moving average with weight alpha given
// to new samples. The zero value (alpha 0) is invalid; use NewEWMA.
type EWMA struct {
	alpha  float64
	value  float64
	primed bool
}

// NewEWMA returns an estimator with the given smoothing factor in (0, 1].
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 || alpha > 1 {
		panic(fmt.Sprintf("sketch: EWMA alpha %v out of (0,1]", alpha))
	}
	return &EWMA{alpha: alpha}
}

// Observe folds in a sample and returns the updated average. The first
// sample initializes the average directly.
func (e *EWMA) Observe(v float64) float64 {
	if !e.primed {
		e.value, e.primed = v, true
	} else {
		e.value = float64(e.alpha*v) + float64((1-e.alpha)*e.value)
	}
	return e.value
}

// Value returns the current average (0 before any sample).
func (e *EWMA) Value() float64 { return e.value }

// Reset discards all samples, returning the estimator to its just-built
// state (the next Observe primes it directly).
func (e *EWMA) Reset() {
	e.value = 0
	e.primed = false
}
