package main

import "encoding/binary"

// Every body the benchmark serves, from disk or from its origin, is the
// content function of (seed, path, generation, offset): byte p of an
// object is byte p%8 of the little-endian word word(key, p/8), where key
// hashes the seed, the path and the generation. A body from another
// file, another generation or another offset differs in almost every
// word, so a byte-for-byte check catches it.

const golden = 0x9e3779b97f4a7c15

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// objectKey names one generation of one object.
func objectKey(seed uint64, path string, gen int64) uint64 {
	h := uint64(14695981039346656037) // FNV-1a over the path
	for i := 0; i < len(path); i++ {
		h ^= uint64(path[i])
		h *= 1099511628211
	}
	return mix64(h ^ mix64(seed+golden) ^ mix64(uint64(gen)*golden+1))
}

func word(key uint64, i int64) uint64 { return mix64(key + uint64(i)*golden) }

// fillContent writes the object's bytes [off, off+len(dst)) into dst.
func fillContent(dst []byte, key uint64, off int64) {
	j := 0
	for ; j < len(dst) && (off+int64(j))%8 != 0; j++ {
		p := off + int64(j)
		dst[j] = byte(word(key, p/8) >> (8 * (p % 8)))
	}
	for ; j+8 <= len(dst); j += 8 {
		binary.LittleEndian.PutUint64(dst[j:], word(key, (off+int64(j))/8))
	}
	for ; j < len(dst); j++ {
		p := off + int64(j)
		dst[j] = byte(word(key, p/8) >> (8 * (p % 8)))
	}
}

// contentMismatch returns the index of the first byte of b that differs
// from the object's bytes at [off, off+len(b)), or -1 when all match.
func contentMismatch(b []byte, key uint64, off int64) int {
	j := 0
	for ; j < len(b) && (off+int64(j))%8 != 0; j++ {
		p := off + int64(j)
		if b[j] != byte(word(key, p/8)>>(8*(p%8))) {
			return j
		}
	}
	for ; j+8 <= len(b); j += 8 {
		if binary.LittleEndian.Uint64(b[j:]) != word(key, (off+int64(j))/8) {
			for k := j; ; k++ { // locate the byte inside the word
				p := off + int64(k)
				if b[k] != byte(word(key, p/8)>>(8*(p%8))) {
					return k
				}
			}
		}
	}
	for ; j < len(b); j++ {
		p := off + int64(j)
		if b[j] != byte(word(key, p/8)>>(8*(p%8))) {
			return j
		}
	}
	return -1
}

// rng is a seeded splitmix64 stream for input generation.
type rng struct{ s uint64 }

func newRNG(seed, stream uint64) *rng { return &rng{s: mix64(seed*golden + stream)} }

func (r *rng) next() uint64 {
	r.s += golden
	return mix64(r.s)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// shuffle permutes n elements with swap.
func (r *rng) shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.intn(i+1))
	}
}
