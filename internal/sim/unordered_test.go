package sim

import (
	"context"
	"testing"

	"repro/internal/fault"
	"repro/internal/march"
)

// The unordered driver must deliver every universe index exactly once
// across all per-worker sinks, with verdicts identical to the
// serialized path — the merge of worker-private sinks is then a pure
// union.
func TestUnorderedMatchesOrdered(t *testing.T) {
	const n = 41
	tr := recordMarch(t, march.MATSPlus(), n)
	p, err := Compile(tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.StandardUniverse(n, 1, 6, 9).Faults
	ctx := context.Background()
	wantDet := replayRef(t, tr, faults)
	for _, chunk := range []int{1, 7, 100, 4096} {
		for _, collapse := range []bool{false, true} {
			const workers = 4
			sinks := make([]*collectSink, workers)
			_, _, err := ShardsCompiledUnordered(ctx, p, fault.SliceSource(faults),
				StreamConfig{Chunk: chunk, Workers: workers, Collapse: collapse},
				func(w int) ChunkSink {
					sinks[w] = newCollectSink()
					return sinks[w].sink
				})
			if err != nil {
				t.Fatal(err)
			}
			merged := newCollectSink()
			for w, cs := range sinks {
				if cs == nil {
					t.Fatalf("chunk=%d: sink factory never called for worker %d", chunk, w)
				}
				for i, d := range cs.det {
					if _, dup := merged.det[i]; dup {
						t.Fatalf("chunk=%d: universe index %d delivered to two workers", chunk, i)
					}
					merged.det[i] = d
					merged.seen++
				}
			}
			if merged.seen != len(faults) {
				t.Fatalf("chunk=%d collapse=%v: %d verdicts, want %d", chunk, collapse, merged.seen, len(faults))
			}
			for i := range faults {
				if merged.det[i] != wantDet[i] {
					t.Fatalf("chunk=%d collapse=%v fault %d: unordered %v, shard %v",
						chunk, collapse, i, merged.det[i], wantDet[i])
				}
			}
		}
	}
}

// With a drop filter the unordered path must skip exactly the dropped
// indices, like the serialized path.
func TestUnorderedDropFilter(t *testing.T) {
	const n = 24
	tr := recordMarch(t, march.MarchCMinus(), n)
	p, err := Compile(tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.StandardUniverse(n, 1, 4, 5).Faults
	drop := fault.NewBitSet(len(faults))
	for i := 0; i < len(faults); i += 3 {
		drop.Set(i)
	}
	sinks := make([]*collectSink, 3)
	_, _, err = ShardsCompiledUnordered(context.Background(), p, fault.SliceSource(faults),
		StreamConfig{Chunk: 11, Workers: 3, Drop: drop},
		func(w int) ChunkSink {
			sinks[w] = newCollectSink()
			return sinks[w].sink
		})
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, cs := range sinks {
		for i := range cs.det {
			if drop.Get(i) {
				t.Fatalf("dropped index %d was delivered", i)
			}
			seen++
		}
	}
	if want := len(faults) - drop.Count(); seen != want {
		t.Fatalf("delivered %d survivors, want %d", seen, want)
	}
}
