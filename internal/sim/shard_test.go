package sim

// Tests for the parallel-in-virtual-time shard group: the determinism
// property (shards=1 and shards=N produce identical per-node event streams
// and an identical merged (at, node) total order), merged deadlock
// diagnosis, and the conduit's window-boundary contract.

import (
	"errors"
	"strings"
	"testing"
)

// lcg is a deterministic 64-bit linear congruential generator; every stream
// in the property test derives from one so the workload is a pure function
// of the seed, never of goroutine scheduling.
type lcg uint64

func (r *lcg) next() uint64 {
	*r = *r*6364136223846793005 + 1442695040888963407
	return uint64(*r) >> 33
}

// shardRec is one executed event in the property-test workload.
type shardRec struct {
	node int
	at   Time
	tag  uint64
}

// runShardWorkload drives a synthetic 2-node message-passing workload at
// the given shard count and returns the per-node execution logs. Each node
// runs a chain of local events; a quarter of the steps instead post a
// cross-node message through the conduit, timed at least one lookahead in
// the future (the fabric property the real engine guarantees via the
// minimum inter-node link α).
func runShardWorkload(t *testing.T, seed uint64, shards int) [][]shardRec {
	t.Helper()
	const (
		nodes     = 2
		lookahead = Duration(100)
		budget    = 200 // events per node before its chain stops
	)
	engines := make([]*Engine, shards)
	for i := range engines {
		engines[i] = NewEngine()
		defer engines[i].Close()
	}
	shardOf := make([]int, nodes)
	for n := range shardOf {
		shardOf[n] = n % shards
	}
	g := NewGroup(engines, shardOf, lookahead)
	cd := g.Conduit()

	logs := make([][]shardRec, nodes)
	rngs := make([]lcg, nodes)
	counts := make([]int, nodes)
	for n := 0; n < nodes; n++ {
		rngs[n] = lcg(seed + uint64(n)*0x9e3779b97f4a7c15)
		counts[n] = budget
	}

	// local executes one event on node's owning shard. All node-indexed
	// state (logs, rngs, counts) is touched only by the shard that owns
	// the node during a window, so the workload is race-free by the same
	// single-writer argument as the real engine.
	var local func(e *Engine, node int, tag uint64)
	local = func(e *Engine, node int, tag uint64) {
		logs[node] = append(logs[node], shardRec{node: node, at: e.Now(), tag: tag})
		if counts[node] <= 0 {
			return
		}
		counts[node]--
		r := &rngs[node]
		if r.next()%4 == 0 {
			dst := (node + 1) % nodes
			at := e.Now().Add(lookahead + Duration(r.next()%30))
			next := tag*31 + 1
			de := engines[shardOf[dst]]
			cd.Post(node, dst, at, func() { local(de, dst, next) })
			return
		}
		delta := Duration(r.next()%50 + 1)
		e.After(delta, func() { local(e, node, tag+1) })
	}

	for n := 0; n < nodes; n++ {
		n := n
		e := engines[shardOf[n]]
		e.After(Duration(n+1), func() { local(e, n, uint64(n)) })
	}
	if err := g.Run(); err != nil {
		t.Fatalf("seed %d shards %d: %v", seed, shards, err)
	}
	return logs
}

// mergeShardRecs produces the global (at, node) total order of a run. The
// per-node logs are already in execution order, and within one node times
// are non-decreasing, so a two-pointer merge suffices.
func mergeShardRecs(logs [][]shardRec) []shardRec {
	var out []shardRec
	idx := make([]int, len(logs))
	for {
		best := -1
		for n := range logs {
			if idx[n] >= len(logs[n]) {
				continue
			}
			r := logs[n][idx[n]]
			if best < 0 {
				best = n
				continue
			}
			b := logs[best][idx[best]]
			if r.at < b.at || (r.at == b.at && n < best) {
				best = n
			}
		}
		if best < 0 {
			return out
		}
		out = append(out, logs[best][idx[best]])
		idx[best]++
	}
}

// TestGroupShardDeterminism is the shard-count invariance property test:
// for several seeds, a 2-node conduit workload at shards=1 and shards=2
// must produce identical per-node event streams, and the merged (at, node)
// total orders must match event for event.
func TestGroupShardDeterminism(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42, 1234, 99999} {
		one := runShardWorkload(t, seed, 1)
		two := runShardWorkload(t, seed, 2)
		for n := range one {
			if len(one[n]) != len(two[n]) {
				t.Fatalf("seed %d node %d: %d events at shards=1, %d at shards=2",
					seed, n, len(one[n]), len(two[n]))
			}
			for i := range one[n] {
				if one[n][i] != two[n][i] {
					t.Fatalf("seed %d node %d event %d: %+v at shards=1, %+v at shards=2",
						seed, n, i, one[n][i], two[n][i])
				}
			}
		}
		m1, m2 := mergeShardRecs(one), mergeShardRecs(two)
		if len(m1) == 0 {
			t.Fatalf("seed %d: workload executed no events", seed)
		}
		for i := range m1 {
			if m1[i] != m2[i] {
				t.Fatalf("seed %d merged event %d: %+v at shards=1, %+v at shards=2",
					seed, i, m1[i], m2[i])
			}
		}
	}
}

// TestGroupDeadlockMerged checks that a group with blocked processes on
// several shards reports one DeadlockError merging every shard's waiting
// list, like the serial engine would for the same cell.
func TestGroupDeadlockMerged(t *testing.T) {
	e0, e1 := NewEngine(), NewEngine()
	defer e0.Close()
	defer e1.Close()
	g := NewGroup([]*Engine{e0, e1}, []int{0, 1}, 10)
	ga, gb := NewGate("never-a"), NewGate("never-b")
	e0.Spawn("p0", func(p *Proc) { ga.Wait(p) })
	e1.Spawn("p1", func(p *Proc) { gb.Wait(p) })
	err := g.Run()
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("Run = %v, want DeadlockError", err)
	}
	if len(dl.Waiting) != 2 {
		t.Fatalf("merged waiting list = %v, want both shards' procs", dl.Waiting)
	}
}

// TestConduitWindowBoundary checks the conservative-lookahead contract: a
// conduit message timed inside the current window is a protocol violation
// and must fail loudly (as a PanicError surfaced through Run), not deliver
// nondeterministically.
func TestConduitWindowBoundary(t *testing.T) {
	e0, e1 := NewEngine(), NewEngine()
	defer e0.Close()
	defer e1.Close()
	g := NewGroup([]*Engine{e0, e1}, []int{0, 1}, 50)
	cd := g.Conduit()
	e0.After(1, func() {
		// Window is [1, 51); posting at time 10 violates the boundary.
		cd.Post(0, 1, Time(10), func() {})
	})
	err := g.Run()
	if err == nil || !strings.Contains(err.Error(), "violates window boundary") {
		t.Fatalf("Run = %v, want window-boundary violation", err)
	}
}
