package sim

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/march"
)

// collectSink gathers chunk verdicts back into universe order so the
// streaming drivers can be compared position for position against the
// interpreter reference (replayRef).  Its factory (sinkFor) builds one
// sink per worker, as every driver requires; the sinks share one map
// behind a mutex, and a universe index delivered twice — to one worker
// or two — panics.
type collectSink struct {
	mu      sync.Mutex
	det     map[int]bool
	seen    int
	workers map[int]bool // worker slots the driver built a sink for
}

func newCollectSink() *collectSink {
	return &collectSink{det: make(map[int]bool), workers: make(map[int]bool)}
}

func (c *collectSink) sinkFor(w int) ChunkSink {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.workers[w] {
		panic("sink factory called twice for one worker")
	}
	c.workers[w] = true
	return func(_, _ int, idx []int, _ []fault.Fault, det []bool) time.Duration {
		c.mu.Lock()
		defer c.mu.Unlock()
		for i := range idx {
			if _, dup := c.det[idx[i]]; dup {
				panic("universe index delivered twice")
			}
			c.det[idx[i]] = det[i]
			c.seen++
		}
		return 0
	}
}

// check asserts that the sinks saw every universe index of want once,
// with want's verdict, and that the driver built one sink for each of
// the workers it reported.
func (c *collectSink) check(t *testing.T, label string, want []bool, workers int) {
	t.Helper()
	if len(c.workers) != workers {
		t.Fatalf("%s: driver built %d sinks for %d workers", label, len(c.workers), workers)
	}
	if c.seen != len(want) {
		t.Fatalf("%s: %d verdicts, want %d", label, c.seen, len(want))
	}
	for i, d := range want {
		if c.det[i] != d {
			t.Fatalf("%s fault %d: driver %v, reference %v", label, i, c.det[i], d)
		}
	}
}

func (c *collectSink) indices() []int {
	out := make([]int, 0, len(c.det))
	for i := range c.det {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// discard is a sink factory whose sinks drop every chunk.
func discard(int) ChunkSink {
	return func(int, int, []int, []fault.Fault, []bool) time.Duration { return 0 }
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
		cs := newCollectSink()
		ws, err := ShardsCompiledStream(ctx, p, fault.SliceSource(faults),
			StreamConfig{Chunk: chunk, Workers: 3}, cs.sinkFor)
		if err != nil {
			t.Fatal(err)
		}
		// Collapsing is chunk-local, so single-fault chunks cannot
		// shrink; larger chunks must (SA0/SA1 pairs are adjacent in the
		// universe order).
		var reps uint64
		for _, w := range ws {
			reps += w.Reps
		}
		if chunk > 1 && reps >= uint64(len(faults)) {
			t.Errorf("chunk=%d: collapsing simulated %d reps for %d faults", chunk, reps, len(faults))
		}
		cs.check(t, fmt.Sprintf("chunk=%d", chunk), wantDet, len(ws))
		// The interpreter path, which never collapses, agrees too.
		cs = newCollectSink()
		ws, err = ShardsStream(ctx, tr, fault.SliceSource(faults), StreamConfig{Chunk: chunk, Workers: 3}, cs.sinkFor)
		if err != nil {
			t.Fatal(err)
		}
		cs.check(t, fmt.Sprintf("bitpar chunk=%d", chunk), wantDet, len(ws))
	}
}

// TestStreamDropFilter: every worker's sink sees exactly the survivors
// of the drop filter, with the full replay's verdicts.
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
		for _, workers := range []int{1, 2, 3} {
			label := fmt.Sprintf("pooled=%v workers=%d", arenas != nil, workers)
			cs := newCollectSink()
			ws, err := ShardsCompiledStream(context.Background(), p, fault.SliceSource(faults),
				StreamConfig{Chunk: 5, Workers: workers, Drop: drop, Arenas: arenas}, cs.sinkFor)
			if err != nil {
				t.Fatal(err)
			}
			if cs.seen != want || len(cs.workers) != len(ws) {
				t.Fatalf("%s: presented %d faults to %d sinks, want %d to %d", label, cs.seen, len(cs.workers), want, len(ws))
			}
			for _, i := range cs.indices() {
				if i%3 == 0 {
					t.Fatalf("%s: dropped fault %d was presented", label, i)
				}
			}
			// Verdicts of the survivors equal the full replay's.
			for i, d := range cs.det {
				if d != full[i] {
					t.Fatalf("%s fault %d: filtered verdict %v, full %v", label, i, d, full[i])
				}
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
	if _, err = ShardsCompiledStream(ctx, p, fault.SliceSource(faults), cfg, discard); err == nil {
		t.Fatal("driver swallowed a batch-injection error")
	}
	if _, err := ShardsStream(ctx, tr, fault.SliceSource(faults), cfg, discard); err == nil {
		t.Fatal("interpreter driver swallowed a batch-injection error")
	}
	// A trace with no detection points is rejected like ReplayBatch
	// rejects it.
	if _, err := ShardsStream(ctx, &Trace{Size: n, Width: 1}, fault.SliceSource(faults[:1]),
		StreamConfig{Chunk: 8, Workers: 1}, discard); err == nil {
		t.Fatal("unreplayable trace accepted")
	}
}
