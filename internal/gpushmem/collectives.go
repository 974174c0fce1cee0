package gpushmem

import (
	"fmt"

	"repro/internal/gpu"
	"repro/internal/machine"
	"repro/internal/sim"
)

// PE-level collectives: the world-team versions of the team bodies in
// team.go. NVSHMEM provides barrier, broadcast, reductions, and fcollect
// natively; variable-size gathers are emulated with Put/Get plus barriers —
// the same strategy the paper describes for UNICONN's GPUSHMEM backend
// (§V-A).
//
// All PEs must invoke the same collectives in the same order per API
// flavour. Functional results are computed in a deterministic rank order
// when the last PE arrives; timing advances through per-round transfers.

type instKey struct {
	seq  uint64
	kind string
}

// collInst is the shared state of one in-flight collective.
type collInst struct {
	arrived int
	ready   *sim.Gate
	stepRdv *sim.Rendezvous
	sends   []gpu.View
	recvs   []gpu.View
}

func log2Ceil(n int) int {
	r := 0
	for v := 1; v < n; v <<= 1 {
		r++
	}
	return r
}

// opKey numbers the PE's next collective. Device- and host-initiated
// collectives share the ordering space: all PEs issue them in the same
// order.
func (pe *PE) opKey(kind string) instKey {
	pe.devOpSeq++
	return instKey{seq: pe.devOpSeq, kind: kind}
}

// --- Device-side collectives ---

// DevBarrierAll is nvshmem_barrier_all from kernel code (requires
// CollectiveLaunch).
func (pe *PE) DevBarrierAll(k *gpu.KernelCtx) {
	pe.callCost(k.P, machine.APIDevice)
	pe.WorldTeam().barrier(k.P, pe.opKey("d-barrier"), machine.APIDevice)
}

// DevAllReduce reduces send into recv on every PE from kernel code.
func (pe *PE) DevAllReduce(k *gpu.KernelCtx, send, recv gpu.View, opr gpu.ReduceOp) {
	pe.callCost(k.P, machine.APIDevice)
	pe.WorldTeam().allReduce(k.P, pe.opKey("d-allreduce"), send, recv, opr, machine.APIDevice)
}

// DevBroadcast broadcasts root's buf from kernel code.
func (pe *PE) DevBroadcast(k *gpu.KernelCtx, buf gpu.View, root int) {
	pe.callCost(k.P, machine.APIDevice)
	pe.WorldTeam().broadcast(k.P, pe.opKey("d-broadcast"), buf, root, machine.APIDevice)
}

// DevAllGatherv emulates a variable-size allgather from kernel code.
func (pe *PE) DevAllGatherv(k *gpu.KernelCtx, send, recv gpu.View, counts, displs []int) {
	pe.callCost(k.P, machine.APIDevice)
	pe.WorldTeam().allGatherv(k.P, pe.opKey("d-allgatherv"), send, recv, counts, displs, machine.APIDevice)
}

// --- Host-side stream-ordered collectives ---

// BarrierAllOnStream enqueues a barrier_all on the stream.
func (pe *PE) BarrierAllOnStream(p *sim.Proc, s *gpu.Stream) {
	key := pe.opKey("h-barrier")
	pe.hostEnqueue(p, s, "barrier-all", func(sp *sim.Proc) {
		pe.WorldTeam().barrier(sp, key, machine.APIHost)
	})
}

// AllReduceOnStream enqueues an allreduce on the stream.
func (pe *PE) AllReduceOnStream(p *sim.Proc, s *gpu.Stream, send, recv gpu.View, opr gpu.ReduceOp) {
	key := pe.opKey("h-allreduce")
	pe.hostEnqueue(p, s, "allreduce", func(sp *sim.Proc) {
		pe.WorldTeam().allReduce(sp, key, send, recv, opr, machine.APIHost)
	})
}

// BroadcastOnStream enqueues a broadcast on the stream.
func (pe *PE) BroadcastOnStream(p *sim.Proc, s *gpu.Stream, buf gpu.View, root int) {
	key := pe.opKey("h-broadcast")
	pe.hostEnqueue(p, s, "broadcast", func(sp *sim.Proc) {
		pe.WorldTeam().broadcast(sp, key, buf, root, machine.APIHost)
	})
}

// AllGathervOnStream enqueues the emulated variable-size allgather on the
// stream.
func (pe *PE) AllGathervOnStream(p *sim.Proc, s *gpu.Stream, send, recv gpu.View, counts, displs []int) {
	key := pe.opKey("h-allgatherv")
	pe.hostEnqueue(p, s, "allgatherv", func(sp *sim.Proc) {
		pe.WorldTeam().allGatherv(sp, key, send, recv, counts, displs, machine.APIHost)
	})
}

// instance returns the shared state of the collective key, sized to the
// team, creating it for the first PE to arrive.
func (t *Team) instance(key instKey) *collInst {
	inst := t.pe.w.insts[key]
	if inst == nil {
		n := t.Size()
		inst = &collInst{
			ready:   sim.NewGate(fmt.Sprintf("shmem-%s-%d", key.kind, key.seq)),
			stepRdv: sim.NewRendezvous(fmt.Sprintf("shmem-step-%s-%d", key.kind, key.seq), n),
			sends:   make([]gpu.View, n),
			recvs:   make([]gpu.View, n),
		}
		t.pe.w.insts[key] = inst
	}
	return inst
}

// arrive registers the calling member's buffers. The last member to arrive
// runs dataFn (the functional result, in team-rank order) and releases the
// others.
func (inst *collInst) arrive(p *sim.Proc, t *Team, send, recv gpu.View, key instKey, dataFn func(*collInst)) {
	inst.sends[t.myIdx] = send
	inst.recvs[t.myIdx] = recv
	inst.arrived++
	if inst.arrived == t.Size() {
		if dataFn != nil {
			dataFn(inst)
		}
		delete(t.pe.w.insts, key)
		inst.ready.Fire(p.Engine())
		return
	}
	inst.ready.Wait(p)
}

// exchangeRounds runs the dissemination/recursive-doubling timing skeleton:
// per round, each member sends bytes to a peer derived in team-rank space
// (negative: none), and all members stay in lockstep.
func (t *Team) exchangeRounds(p *sim.Proc, inst *collInst, api machine.API,
	rounds int, peerOf func(round int) int, bytesOf func(round int) int64) {

	pe := t.pe
	fab := pe.w.cluster.Fabric
	cl := pe.w.cluster
	for r := 0; r < rounds; r++ {
		inst.stepRdv.Arrive(p)
		peer := peerOf(r)
		if peer >= 0 && peer < t.Size() && peer != t.myIdx {
			dst := t.World(peer)
			bytes := bytesOf(r)
			path := fab.PathBetween(pe.rank, dst)
			cost := cl.Cost(machine.LibGPUSHMEM, api, path, bytes)
			p.AdvanceTo(fab.Transfer(p.Now(), pe.rank, dst, bytes, cost))
		}
	}
	inst.stepRdv.Arrive(p)
}

// putAll transfers bytes from the calling member to every other member
// whose team rank dstOf(i) yields, for i in [1, Size), and advances to the
// last arrival.
func (t *Team) putAll(p *sim.Proc, api machine.API, bytes int64, dstOf func(i int) int) {
	pe := t.pe
	fab := pe.w.cluster.Fabric
	cl := pe.w.cluster
	last := p.Now()
	for i := 1; i < t.Size(); i++ {
		dst := t.World(dstOf(i))
		path := fab.PathBetween(pe.rank, dst)
		cost := cl.Cost(machine.LibGPUSHMEM, api, path, bytes)
		last = max(last, fab.Transfer(p.Now(), pe.rank, dst, bytes, cost))
	}
	p.AdvanceTo(last)
}

// observe starts timing one collective in the histogram of its kind (world
// kinds only; team kinds have none) and returns the function that records
// it.
func (t *Team) observe(p *sim.Proc, key instKey) func() {
	h := t.pe.w.collHist(key.kind)
	if h == nil {
		return func() {}
	}
	start := p.Now()
	return func() { h.Observe(int64(p.Now().Sub(start))) }
}

// barrier is a dissemination exchange of empty messages.
func (t *Team) barrier(p *sim.Proc, key instKey, api machine.API) {
	defer t.observe(p, key)()
	inst := t.instance(key)
	inst.arrive(p, t, gpu.View{}, gpu.View{}, key, nil)
	n := t.Size()
	t.exchangeRounds(p, inst, api, log2Ceil(n),
		func(r int) int { return (t.myIdx + (1 << r)) % n },
		func(int) int64 { return 8 })
}

// allReduce: recursive-doubling timing, deterministic rank-ordered data.
func (t *Team) allReduce(p *sim.Proc, key instKey, send, recv gpu.View, opr gpu.ReduceOp, api machine.API) {
	defer t.observe(p, key)()
	inst := t.instance(key)
	count := send.Len()
	n := t.Size()
	inst.arrive(p, t, send, recv, key, func(inst *collInst) {
		acc := inst.sends[0].Clone()
		for r := 1; r < n; r++ {
			gpu.Reduce(acc, inst.sends[r], count, opr)
		}
		for r := 0; r < n; r++ {
			gpu.Copy(inst.recvs[r], acc, count)
		}
		acc.Release()
	})
	bytes := send.Bytes()
	t.exchangeRounds(p, inst, api, log2Ceil(n),
		func(r int) int { return t.myIdx ^ (1 << r) },
		func(int) int64 { return bytes })
}

// broadcast: the root puts to every member; all leave when the slowest put
// lands.
func (t *Team) broadcast(p *sim.Proc, key instKey, buf gpu.View, root int, api machine.API) {
	defer t.observe(p, key)()
	inst := t.instance(key)
	n := t.Size()
	inst.arrive(p, t, buf, buf, key, func(inst *collInst) {
		src := inst.sends[root]
		for r := 0; r < n; r++ {
			if r != root {
				gpu.Copy(inst.recvs[r], src, src.Len())
			}
		}
	})
	if t.myIdx == root {
		// Every other member in ascending team rank.
		t.putAll(p, api, buf.Bytes(), func(i int) int {
			if i <= root {
				return i - 1
			}
			return i
		})
	}
	inst.stepRdv.Arrive(p)
}

// allGatherv emulates a variable-size allgather with puts + barrier: each
// member puts its contribution into every other member's recv buffer at
// its displacement, then all synchronize.
func (t *Team) allGatherv(p *sim.Proc, key instKey, send, recv gpu.View, counts, displs []int, api machine.API) {
	defer t.observe(p, key)()
	inst := t.instance(key)
	n := t.Size()
	inst.arrive(p, t, send, recv, key, func(inst *collInst) {
		for r := 0; r < n; r++ {
			for dst := 0; dst < n; dst++ {
				gpu.Copy(inst.recvs[dst].Slice(displs[r], counts[r]), inst.sends[r], counts[r])
			}
		}
	})
	t.putAll(p, api, send.Bytes(), func(i int) int { return (t.myIdx + i) % n })
	inst.stepRdv.Arrive(p) // barrier: everyone's puts delivered
}
