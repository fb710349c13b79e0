package sim

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"testing"

	"repro/internal/fault"
	"repro/internal/march"
)

// collectSink gathers chunk verdicts back into universe order so the
// streaming drivers can be compared position for position against the
// interpreter reference (replayRef).
type collectSink struct {
	det  map[int]bool
	seen int
}

func newCollectSink() *collectSink { return &collectSink{det: make(map[int]bool)} }

func (c *collectSink) sink(_, _ int, idx []int, faults []fault.Fault, det []bool) {
	for i := range idx {
		if _, dup := c.det[idx[i]]; dup {
			panic("universe index delivered twice")
		}
		c.det[idx[i]] = det[i]
		c.seen++
	}
}

// check asserts that the sink saw every universe index of want once,
// with want's verdict.
func (c *collectSink) check(t *testing.T, label string, want []bool) {
	t.Helper()
	if c.seen != len(want) {
		t.Fatalf("%s: %d verdicts, want %d", label, c.seen, len(want))
	}
	for i, d := range want {
		if c.det[i] != d {
			t.Fatalf("%s fault %d: driver %v, reference %v", label, i, c.det[i], d)
		}
	}
}

// collectUnordered runs the unordered compiled driver over faults and
// merges its per-worker sinks, failing on an index delivered twice.
func collectUnordered(ctx context.Context, p *Program, faults []fault.Fault, cfg StreamConfig) (*collectSink, error) {
	merged := newCollectSink()
	var mu sync.Mutex
	_, _, err := ShardsCompiledUnordered(ctx, p, fault.SliceSource(faults), cfg,
		func(int) ChunkSink {
			return func(base, n int, idx []int, faults []fault.Fault, det []bool) {
				mu.Lock()
				defer mu.Unlock()
				merged.sink(base, n, idx, faults, det)
			}
		})
	return merged, err
}

func (c *collectSink) indices() []int {
	out := make([]int, 0, len(c.det))
	for i := range c.det {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

func TestStreamDriversMatchShardDrivers(t *testing.T) {
	const n = 33
	tr := recordMarch(t, march.MarchCMinus(), n)
	p, err := Compile(tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.StandardUniverse(n, 1, 6, 9).Faults
	ctx := context.Background()
	wantDet := replayRef(t, tr, faults)
	for _, chunk := range []int{1, 7, 100, 4096} {
		for _, collapse := range []bool{false, true} {
			cs := newCollectSink()
			_, reps, err := ShardsCompiledStream(ctx, p, fault.SliceSource(faults),
				StreamConfig{Chunk: chunk, Workers: 3, Collapse: collapse}, cs.sink)
			if err != nil {
				t.Fatal(err)
			}
			// Collapsing is chunk-local, so single-fault chunks cannot
			// shrink; larger chunks must (SA0/SA1 pairs are adjacent in
			// the universe order).
			if collapse && chunk > 1 && reps >= len(faults) {
				t.Errorf("chunk=%d: collapsing simulated %d reps for %d faults", chunk, reps, len(faults))
			}
			cs.check(t, fmt.Sprintf("chunk=%d collapse=%v", chunk, collapse), wantDet)
		}
		// The interpreter path agrees too.
		cs := newCollectSink()
		if _, _, err := ShardsStream(ctx, tr, fault.SliceSource(faults),
			StreamConfig{Chunk: chunk, Workers: 3}, cs.sink); err != nil {
			t.Fatal(err)
		}
		cs.check(t, fmt.Sprintf("bitpar chunk=%d", chunk), wantDet)
	}
}

func TestStreamDropFilter(t *testing.T) {
	const n = 17
	tr := recordMarch(t, march.MATSPlus(), n)
	p, err := Compile(tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.SingleCellUniverse(n, 1)
	drop := fault.NewBitSet(len(faults))
	for i := range faults {
		if i%3 == 0 {
			drop.Set(i)
		}
	}
	full := replayRef(t, tr, faults)
	want := 0
	for i := range faults {
		if i%3 != 0 {
			want++
		}
	}
	// Pooled and fresh arenas alike: a session's stages share a pool.
	for _, arenas := range []*ArenaPool{nil, {}} {
		cs := newCollectSink()
		if _, _, err := ShardsCompiledStream(context.Background(), p, fault.SliceSource(faults),
			StreamConfig{Chunk: 5, Workers: 2, Drop: drop, Collapse: true, Arenas: arenas}, cs.sink); err != nil {
			t.Fatal(err)
		}
		if cs.seen != want {
			t.Fatalf("presented %d faults, want %d", cs.seen, want)
		}
		for _, i := range cs.indices() {
			if i%3 == 0 {
				t.Fatalf("dropped fault %d was presented", i)
			}
		}
		// Verdicts of the survivors equal the full replay's.
		for i, d := range cs.det {
			if d != full[i] {
				t.Fatalf("pooled=%v fault %d: filtered verdict %v, full %v", arenas != nil, i, d, full[i])
			}
		}
	}
}

// failInjector is a fault that refuses batch injection, forcing the
// replay error path.
type failInjector struct{ fault.Fault }

func TestStreamErrorStops(t *testing.T) {
	const n = 16
	tr := recordMarch(t, march.MATSPlus(), n)
	p, err := Compile(tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.SingleCellUniverse(n, 1)
	faults[37] = failInjector{faults[37]} // strips the BatchInjector capability
	ctx := context.Background()
	cfg := StreamConfig{Chunk: 8, Workers: 2}
	cs := newCollectSink()
	_, _, err = ShardsCompiledStream(ctx, p, fault.SliceSource(faults), cfg, cs.sink)
	if err == nil {
		t.Fatal("driver swallowed a batch-injection error")
	}
	var discard ChunkSink = func(int, int, []int, []fault.Fault, []bool) {}
	if _, _, err := ShardsStream(ctx, tr, fault.SliceSource(faults), cfg, discard); err == nil {
		t.Fatal("interpreter driver swallowed a batch-injection error")
	}
	// A trace with no detection points is rejected like ReplayBatch
	// rejects it.
	if _, _, err := ShardsStream(ctx, &Trace{Size: n, Width: 1}, fault.SliceSource(faults[:1]),
		StreamConfig{Chunk: 8, Workers: 1}, discard); err == nil {
		t.Fatal("unreplayable trace accepted")
	}
}
