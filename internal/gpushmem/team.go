package gpushmem

// Teams: OpenSHMEM-style PE subsets (nvshmem_team_t). A Team scopes the
// host-side collectives to a subset of PEs; TeamSplit partitions an
// existing team by color/key like shmem_team_split (and MPI_Comm_split).
// The world team is implicit: the PE-level collective methods in
// collectives.go run the team bodies on the PE's cached world team.

import (
	"fmt"
	"sort"

	"repro/internal/machine"
	"repro/internal/sim"

	"repro/internal/gpu"
)

// Team is a PE subset handle owned by one PE.
type Team struct {
	pe      *PE
	id      uint64
	members []int // world PE ids, ordered by team rank
	myIdx   int
}

// WorldTeam returns the implicit all-PEs team handle for this PE. The
// handle is cached: a Team is immutable, so every caller can share it.
func (pe *PE) WorldTeam() *Team {
	if pe.world == nil {
		members := make([]int, pe.Size())
		for i := range members {
			members[i] = i
		}
		pe.world = &Team{pe: pe, id: 0, members: members, myIdx: pe.rank}
	}
	return pe.world
}

// Rank reports the calling PE's rank within the team.
func (t *Team) Rank() int { return t.myIdx }

// Size reports the team size.
func (t *Team) Size() int { return len(t.members) }

// World translates a team rank to a world PE id.
func (t *Team) World(r int) int { return t.members[r] }

// splitInst coordinates one collective TeamSplit call.
type splitInst struct {
	entries map[int][2]int // world rank -> (color, key)
	rdv     *sim.Rendezvous
	ids     map[int]uint64 // color -> new team id
}

// TeamSplit partitions the team by color (negative = join no team),
// ordering each new team by (key, old world rank). Every member of the
// team must call it; the call synchronizes like a barrier.
func (t *Team) TeamSplit(p *sim.Proc, color, key int) *Team {
	pe := t.pe
	w := pe.w
	pe.splitSeq++
	skey := instKey{seq: pe.splitSeq, kind: fmt.Sprintf("team-split-%d", t.id)}
	si := w.splits[skey]
	if si == nil {
		si = &splitInst{
			entries: map[int][2]int{},
			rdv:     sim.NewRendezvous(skey.kind, t.Size()),
			ids:     map[int]uint64{},
		}
		w.splits[skey] = si
	}
	si.entries[pe.rank] = [2]int{color, key}
	// Split costs one dissemination exchange, like a small barrier.
	prof := pe.model().Profile(machine.LibGPUSHMEM, machine.APIHost)
	p.Advance(prof.CallOverhead * sim.Duration(log2Ceil(t.Size())+1))
	si.rdv.Arrive(p)
	if color < 0 {
		return nil
	}
	// All entries present: compute my group deterministically.
	type ent struct{ world, color, key int }
	var group []ent
	for _, wr := range t.members {
		e := si.entries[wr]
		if e[0] == color {
			group = append(group, ent{world: wr, color: e[0], key: e[1]})
		}
	}
	sort.Slice(group, func(i, j int) bool {
		if group[i].key != group[j].key {
			return group[i].key < group[j].key
		}
		return group[i].world < group[j].world
	})
	// Deterministic new team id shared by all members of this color.
	if _, ok := si.ids[color]; !ok {
		w.nextTeamID++
		si.ids[color] = w.nextTeamID
	}
	nt := &Team{pe: pe, id: si.ids[color], myIdx: -1}
	for i, e := range group {
		nt.members = append(nt.members, e.world)
		if e.world == pe.rank {
			nt.myIdx = i
		}
	}
	if nt.myIdx < 0 {
		panic("gpushmem: split lost the calling PE")
	}
	return nt
}

// shrinkInst coordinates one collective Shrink across the survivors.
type shrinkInst struct {
	rdv *sim.Rendezvous
	id  uint64
}

// Shrink reconstructs the team over the members not in dead, preserving
// relative order — the NVSHMEM recovery idiom of destroying a broken team
// and rebuilding it from the surviving PEs. All survivors must call it with
// the same dead set and generation (gen is bumped once per failure epoch by
// the caller); the call synchronizes the survivors like a barrier before
// the new team is usable. Instances of the old team can never match new
// traffic: the rebuilt team has a fresh id.
func (t *Team) Shrink(p *sim.Proc, dead map[int]bool, gen int) *Team {
	pe := t.pe
	w := pe.w
	var members []int
	myIdx := -1
	for _, wr := range t.members {
		if dead[wr] {
			continue
		}
		if wr == pe.rank {
			myIdx = len(members)
		}
		members = append(members, wr)
	}
	if myIdx < 0 {
		panic(fmt.Sprintf("gpushmem: PE %d shrinking a team it failed in", pe.rank))
	}
	skey := instKey{seq: uint64(gen), kind: fmt.Sprintf("team-shrink-%d", t.id)}
	si := w.shrinks[skey]
	if si == nil {
		w.nextTeamID++
		si = &shrinkInst{
			rdv: sim.NewRendezvous(skey.kind, len(members)),
			id:  w.nextTeamID,
		}
		w.shrinks[skey] = si
	}
	// Teardown plus reconstruction exchange, then all survivors synchronize.
	prof := pe.model().Profile(machine.LibGPUSHMEM, machine.APIHost)
	p.Advance(prof.CallOverhead * sim.Duration(log2Ceil(len(members))+2))
	si.rdv.Arrive(p)
	return &Team{pe: pe, id: si.id, members: members, myIdx: myIdx}
}

// Team-scoped host collectives: the bodies in collectives.go, with
// instances keyed by team id (so concurrent teams do not cross-talk).

func (t *Team) key(kind string) instKey {
	t.pe.devOpSeq++
	return instKey{seq: t.pe.devOpSeq, kind: fmt.Sprintf("%s@team%d", kind, t.id)}
}

// BarrierOnStream synchronizes the team's PEs with respect to the stream.
func (t *Team) BarrierOnStream(p *sim.Proc, s *gpu.Stream) {
	key := t.key("h-team-barrier")
	t.pe.hostEnqueue(p, s, "team-barrier", func(sp *sim.Proc) {
		t.barrier(sp, key, machine.APIHost)
	})
}

// AllReduceOnStream reduces count elements across the team.
func (t *Team) AllReduceOnStream(p *sim.Proc, s *gpu.Stream, send, recv gpu.View, opr gpu.ReduceOp) {
	key := t.key("h-team-allreduce")
	t.pe.hostEnqueue(p, s, "team-allreduce", func(sp *sim.Proc) {
		t.allReduce(sp, key, send, recv, opr, machine.APIHost)
	})
}

// BroadcastOnStream broadcasts the team-rank root's buffer.
func (t *Team) BroadcastOnStream(p *sim.Proc, s *gpu.Stream, buf gpu.View, root int) {
	key := t.key("h-team-broadcast")
	t.pe.hostEnqueue(p, s, "team-broadcast", func(sp *sim.Proc) {
		t.broadcast(sp, key, buf, root, machine.APIHost)
	})
}

// AllGathervOnStream gathers variable contributions across the team.
func (t *Team) AllGathervOnStream(p *sim.Proc, s *gpu.Stream, send, recv gpu.View, counts, displs []int) {
	key := t.key("h-team-allgatherv")
	t.pe.hostEnqueue(p, s, "team-allgatherv", func(sp *sim.Proc) {
		t.allGatherv(sp, key, send, recv, counts, displs, machine.APIHost)
	})
}
