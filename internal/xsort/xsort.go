// Package xsort provides the ordered-slice primitives the hot paths
// share: an in-place, allocation-free stable sort tuned for scheduling
// decisions (binary-insertion sort on small slices, where it beats the
// library sorts' per-comparison overhead; slices.SortStableFunc above the
// threshold, where insertion's O(n²) element moves would dominate) and a
// lower-bound search for maintaining sorted lists in place. Stable sorts
// have a unique output, so every path through Stable is bit-transparent
// with sort.SliceStable.
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

// LowerBound returns the first index i in the sorted slice v with
// !less(v[i], x), i.e. the insertion point that keeps v sorted.
func LowerBound[T any](v []T, x T, less func(a, b T) bool) int {
	lo, hi := 0, len(v)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if less(v[mid], x) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Insert inserts x into the sorted slice v at its lower bound, returning
// the extended slice.
func Insert[T any](v []T, x T, less func(a, b T) bool) []T {
	i := LowerBound(v, x, less)
	var zero T
	v = append(v, zero)
	copy(v[i+1:], v[i:])
	v[i] = x
	return v
}

// Remove removes the element at x's lower bound from the sorted slice v,
// returning the shortened slice. The element must be present.
func Remove[T any](v []T, x T, less func(a, b T) bool) []T {
	i := LowerBound(v, x, less)
	copy(v[i:], v[i+1:])
	return v[:len(v)-1]
}
