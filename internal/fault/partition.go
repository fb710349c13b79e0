// Index-range partitioning of fault universes.  A SubSource is pure
// index arithmetic over the universe it views, so partitioned
// enumeration is as deterministic as the generators it wraps.
//
//faultsim:deterministic

package fault

// This file splits one fault universe into index ranges — the unit of
// distribution for multi-process campaigns.  PartitionRange cuts
// [0, n) into k near-equal contiguous ranges that tile it exactly, and
// SubSource restricts any Source to one range [lo, hi) by offsetting
// its indices, so a partition's faults are byte-identical to the same
// index range of the unpartitioned universe, and any number of views
// may share one Source.

// SubSource returns a view of src restricted to the index range
// [lo, hi): fault i of the view is fault lo+i of src.  The range is
// clamped to src's Count.  Panics if lo < 0 or hi < lo.
func SubSource(src Source, lo, hi int) Source {
	if lo < 0 || hi < lo {
		panic("fault: SubSource range must satisfy 0 <= lo <= hi")
	}
	n, _ := src.Count()
	hi = min(hi, n)
	lo = min(lo, hi)
	return &source{n: hi - lo, fill: func(dst []Fault, i int) { src.Fill(dst, lo+i) }}
}

// PartitionRange returns the index range [lo, hi) of partition i of k
// over an n-fault universe: ranges tile [0, n) exactly and differ in
// size by at most one fault.  Panics unless 0 <= i < k and n >= 0.
func PartitionRange(n, i, k int) (lo, hi int) {
	if k <= 0 || i < 0 || i >= k || n < 0 {
		panic("fault: PartitionRange needs n >= 0 and 0 <= i < k")
	}
	return i * n / k, (i + 1) * n / k
}
