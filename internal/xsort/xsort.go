// Package xsort provides the stable sort the hot paths share: in place,
// allocation-free and tuned for scheduling decisions (binary-insertion
// sort on small slices, where it beats the library sorts' per-comparison
// overhead; slices.SortStableFunc above the threshold, where insertion's
// O(n²) element moves would dominate). Stable sorts have a unique output,
// so every path through Stable is bit-transparent with sort.SliceStable.
package xsort

import "slices"

// insertionMaxLen bounds the binary-insertion path: scheduling decisions
// sort a handful of candidates, where shifting a few pointer-sized
// elements is cheapest. Beyond it the quadratic move count loses, so
// Stable switches to slices.SortStableFunc.
const insertionMaxLen = 64

// Stable sorts v in place, stably and without allocating. Slices up to
// insertionMaxLen elements are sorted by binary insertion; longer slices
// by slices.SortStableFunc (O(n log n) comparisons, O(n log² n) moves) —
// not sort.SliceStable, which boxes the slice and builds a reflect
// swapper: two heap objects per call.
func Stable[T any](v []T, less func(a, b T) bool) {
	if len(v) <= insertionMaxLen {
		insertionStable(v, less)
		return
	}
	slices.SortStableFunc(v, func(a, b T) int {
		switch {
		case less(a, b):
			return -1
		case less(b, a):
			return 1
		}
		return 0
	})
}

// insertionStable is a stable binary-insertion sort.
func insertionStable[T any](v []T, less func(a, b T) bool) {
	for i := 1; i < len(v); i++ {
		x := v[i]
		lo, hi := 0, i
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if less(x, v[mid]) {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		copy(v[lo+1:i+1], v[lo:i])
		v[lo] = x
	}
}
