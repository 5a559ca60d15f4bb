package score

import (
	"fmt"
	"testing"

	"mapa/internal/effbw"
	"mapa/internal/topology"
)

// TestMixShardBoundHoldsMemoryFlat churns far more distinct GPU-set
// keys through one shard than its bound admits and checks the resident
// count never exceeds the bound — the memo must hold memory flat under
// sustained churn (long-running daemons, adversarial request mixes)
// instead of growing without bound.
func TestMixShardBoundHoldsMemoryFlat(t *testing.T) {
	var sh mixShard
	const churn = 4 * maxMixEntriesPerShard
	for i := 0; i < churn; i++ {
		sh.mu.Lock()
		sh.put(fmt.Sprintf("set-%d", i), effbw.LinkCounts{X: i})
		if n := len(sh.m); n > maxMixEntriesPerShard {
			sh.mu.Unlock()
			t.Fatalf("after %d inserts: shard holds %d entries, bound %d", i+1, n, maxMixEntriesPerShard)
		}
		sh.mu.Unlock()
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if n := len(sh.m); n != maxMixEntriesPerShard {
		t.Fatalf("steady-state shard size %d, want exactly the bound %d", n, maxMixEntriesPerShard)
	}
}

// TestMixShardEvictionRecomputes checks an evicted mix is merely
// recomputed, not lost: re-requesting a set that was evicted returns
// the same decomposition a cold memo would.
func TestMixShardEvictionRecomputes(t *testing.T) {
	top := topology.DGXA100()
	gpus := []int{0, 1, 2}
	want := mixesOf(top).mix(gpus)
	// Force the set's shard over its bound with synthetic keys so the
	// real entry is eventually evicted.
	_, h := mixSetKey(nil, gpus)
	sh := &mixesOf(top).shards[h%mixShards]
	sh.mu.Lock()
	for i := 0; i < maxMixEntriesPerShard+1; i++ {
		sh.put(fmt.Sprintf("churn-%d", i), effbw.LinkCounts{})
	}
	sh.mu.Unlock()
	if got := mixesOf(top).mix(gpus); got != want {
		t.Fatalf("recomputed mix %+v differs from original %+v", got, want)
	}
}

// TestMixMemoStaysBoundedAcrossShards drives real mix calls
// with many distinct GPU sets and asserts every shard of the topology's
// memo respects the per-shard bound.
func TestMixMemoStaysBoundedAcrossShards(t *testing.T) {
	top := topology.DGXA100()
	sets := 0
	for a := 0; a < 8; a++ {
		for b := a + 1; b < 8; b++ {
			for c := b + 1; c < 8; c++ {
				mixesOf(top).mix([]int{a, b, c})
				sets++
			}
		}
	}
	tm := mixesOf(top)
	total := 0
	for i := range tm.shards {
		sh := &tm.shards[i]
		sh.mu.Lock()
		n := len(sh.m)
		sh.mu.Unlock()
		if n > maxMixEntriesPerShard {
			t.Fatalf("shard %d holds %d entries, bound %d", i, n, maxMixEntriesPerShard)
		}
		total += n
	}
	if total == 0 {
		t.Fatalf("memo empty after %d distinct sets", sets)
	}
}
