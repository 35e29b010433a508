package miner

import (
	"fmt"

	"gthinkerqc/internal/bitset"
	"gthinkerqc/internal/graph"
	"gthinkerqc/internal/quasiclique"
	"gthinkerqc/internal/store"
)

// The app's gthinker.TaskCodec half: spilled and stolen task batches
// use the raw columnar GQS1 format. Only two kinds of task ever sit in
// a queue, so a record is one of two shapes, its words little-endian:
//
//	iteration uint32           1: a spawned root, 3: a decomposed subtask
//	root      uint32
//	(iteration 3 only)
//	Sub       n uint32, labels [n]uint32, rows [n·⌈n/64⌉]uint64
//	          (quasiclique.Sub.AppendRaw)
//	sCount    uint32, s   [sCount]uint32
//	extCount  uint32, ext [extCount]uint32
//
// A root task is queued at spawn, before its first compute; a subtask
// is a rows Sub compacted from its parent's matrix, so its record
// carries the bit rows the next miner binds with a copy. An
// iteration-2 task waits for its pulls on its worker's pending list
// and runs on into iteration 3 in one compute call, so it never
// reaches a queue, a spill file or a steal frame, and neither it nor
// its partial subgraph (Payload.Partial) has a record. The layout is part
// of the app's wire: a change to it bumps jobSpecMagic (cluster.go),
// so a mixed build fails at opRun.
//
// Decode is a sequential walk: the arrays alias the batch read buffer
// (each task's regions are its own, so in-place mutation by later
// compute iterations stays safe).

// AppendTaskPayload implements gthinker.TaskCodec.
func (a *app) AppendTaskPayload(dst []byte, payload any) ([]byte, error) {
	p, ok := payload.(*Payload)
	if !ok {
		return nil, fmt.Errorf("miner: spill codec: unexpected payload type %T", payload)
	}
	if p.Iteration != 1 && (p.Iteration != 3 || p.Sub == nil) {
		return nil, fmt.Errorf("miner: spill codec: task of root %d at iteration %d (Sub %t) is never queued",
			p.Root, p.Iteration, p.Sub != nil)
	}
	dst = store.AppendU32(dst, uint32(p.Iteration))
	dst = store.AppendU32(dst, uint32(p.Root))
	if p.Iteration == 1 {
		return dst, nil
	}
	dst = p.Sub.AppendRaw(dst)
	dst = store.AppendU32(dst, uint32(len(p.S)))
	dst = store.AppendU32s(dst, p.S)
	dst = store.AppendU32(dst, uint32(len(p.Ext)))
	dst = store.AppendU32s(dst, p.Ext)
	return dst, nil
}

// DecodeTaskPayload implements gthinker.TaskCodec. A spill file or a
// steal frame is bytes from outside the process, so the walk also
// refuses an iteration no queue holds, bytes after a root record, and
// every ID a later iteration would index out of range: a Root past the
// app's graph, a Sub label past it (and whatever Sub.DecodeRaw
// refuses), an empty S (a subtask's S holds at least its root), and S
// and Ext that are not disjoint sets of the Sub's local indices with S
// sorted.
func (a *app) DecodeTaskPayload(data []byte) (any, error) {
	nv := uint32(a.g.NumVertices())
	c := store.NewCursor(data)
	p := &Payload{}
	p.Iteration = int(c.U32())
	p.Root = graph.V(c.U32())
	if err := c.Err(); err != nil {
		return nil, fmt.Errorf("miner: corrupt spilled payload: %w", err)
	}
	if p.Iteration != 1 && p.Iteration != 3 {
		return nil, fmt.Errorf("miner: corrupt spilled payload: iteration %d is never queued", p.Iteration)
	}
	if p.Root >= nv {
		return nil, fmt.Errorf("miner: corrupt spilled payload: root %d out of range [0,%d)", p.Root, nv)
	}
	if p.Iteration == 3 {
		p.Sub = &quasiclique.Sub{}
		if err := p.Sub.DecodeRaw(c); err != nil {
			return nil, err
		}
		p.S = c.U32s(int(c.U32()))
		p.Ext = c.U32s(int(c.U32()))
		if err := c.Err(); err != nil {
			return nil, fmt.Errorf("miner: corrupt spilled payload: %w", err)
		}
	}
	if c.Remaining() != 0 {
		return nil, fmt.Errorf("miner: corrupt spilled payload: %d trailing bytes", c.Remaining())
	}
	if p.Sub == nil {
		return p, nil
	}
	if n := p.Sub.N(); n > 0 && p.Sub.Label[n-1] >= nv {
		return nil, fmt.Errorf("miner: corrupt spilled payload: Sub label %d out of range [0,%d)", p.Sub.Label[n-1], nv)
	}
	if len(p.S) == 0 {
		return nil, fmt.Errorf("miner: corrupt spilled payload: subtask of root %d with an empty S", p.Root)
	}
	if err := checkTaskSets(p.S, p.Ext, p.Sub.N()); err != nil {
		return nil, err
	}
	return p, nil
}

// checkTaskSets refuses S and Ext unless they are what iteration 3
// mines: sorted S and unordered Ext, disjoint sets of local indices in
// [0, n). The miner sizes its tables by n and indexes them by |S| plus
// a part of |Ext|, so a repeated entry could index past them.
func checkTaskSets(S, ext []uint32, n int) error {
	seen := make([]uint64, bitset.WordsFor(n))
	for i, x := range S {
		if int(x) >= n {
			return fmt.Errorf("miner: corrupt spilled payload: local index %d out of range [0,%d)", x, n)
		}
		if i > 0 && x <= S[i-1] {
			return fmt.Errorf("miner: corrupt spilled payload: S entry %d follows %d", x, S[i-1])
		}
		bitset.SetBit(seen, int(x))
	}
	for _, x := range ext {
		if int(x) >= n {
			return fmt.Errorf("miner: corrupt spilled payload: local index %d out of range [0,%d)", x, n)
		}
		if bitset.TestBit(seen, int(x)) {
			return fmt.Errorf("miner: corrupt spilled payload: Ext entry %d repeats or is in S", x)
		}
		bitset.SetBit(seen, int(x))
	}
	return nil
}
