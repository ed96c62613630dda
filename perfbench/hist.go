package main

import "math/bits"

// hist is a log-linear latency histogram over nanoseconds: values below
// 2^subBits are exact, and every power-of-two range above is split into
// 2^subBits equal buckets, so a bucket is at most 1/128 of its lower
// bound wide and its midpoint is within 0.4% of any value in it.
type hist struct {
	counts [64 << subBits]uint64
	n      uint64
}

const subBits = 7

func bucketOf(v uint64) int {
	if v < 1<<subBits {
		return int(v)
	}
	shift := bits.Len64(v) - subBits - 1
	return (shift+1)<<subBits + int(v>>shift) - 1<<subBits
}

// bucketMid returns the midpoint of bucket i.
func bucketMid(i int) float64 {
	if i < 1<<subBits {
		return float64(i)
	}
	shift := i>>subBits - 1
	low := uint64(i&(1<<subBits-1)+1<<subBits) << shift
	return float64(low) + float64(uint64(1)<<shift)/2
}

func (h *hist) observe(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[bucketOf(uint64(ns))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in nanoseconds (0 when empty).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q*float64(h.n) + 0.5)
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			return bucketMid(i)
		}
	}
	return bucketMid(len(h.counts) - 1)
}
