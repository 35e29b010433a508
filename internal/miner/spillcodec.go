package miner

import (
	"fmt"

	"gthinkerqc/internal/bitset"
	"gthinkerqc/internal/graph"
	"gthinkerqc/internal/quasiclique"
	"gthinkerqc/internal/store"
)

// The app's gthinker.TaskCodec half: spilled and stolen task batches
// use the raw columnar GQS1 format. A Payload is a handful of flat
// arrays (plus the Sub's label and row words), so its record is the
// arrays written verbatim, little-endian:
//
//	iteration uint32
//	root      uint32
//	flags     uint32           bit 0: Sub present
//	gvCount   uint32, gverts [gvCount]uint32
//	rowCount  uint32, rowLens [rowCount]uint32
//	flatLen   uint32, flat    [flatLen]uint32    (GAdj packed)
//	Sub (if flags&1): n uint32, labels [n]uint32, rows [n·⌈n/64⌉]uint64
//	          (quasiclique.Sub.AppendRaw)
//	sCount    uint32, s   [sCount]uint32
//	extCount  uint32, ext [extCount]uint32
//
// Only iteration-3 subtasks ever reach a spill file or a steal frame
// with a Sub (iteration 2 runs on into iteration 3 in one compute
// call), and a subtask is a rows Sub compacted from its parent's
// matrix, so its record carries the bit rows the next miner binds with
// a copy. The layout is part of the app's wire: a change to it bumps
// jobSpecMagic (cluster.go), so a mixed build fails at opRun.
//
// Decode is a sequential walk plus pointer fix-up: the arrays alias
// the batch read buffer (each task's regions are its own, so in-place
// mutation by later compute iterations stays safe), and GAdj rows are
// re-sliced out of the packed array.

const payloadHasSub = 1 << 0

// AppendTaskPayload implements gthinker.TaskCodec.
func (a *app) AppendTaskPayload(dst []byte, payload any) ([]byte, error) {
	p, ok := payload.(*Payload)
	if !ok {
		return nil, fmt.Errorf("miner: spill codec: unexpected payload type %T", payload)
	}
	dst = store.AppendU32(dst, uint32(p.Iteration))
	dst = store.AppendU32(dst, uint32(p.Root))
	flags := uint32(0)
	if p.Sub != nil {
		flags |= payloadHasSub
	}
	dst = store.AppendU32(dst, flags)
	dst = store.AppendU32(dst, uint32(len(p.GVerts)))
	dst = store.AppendU32s(dst, p.GVerts)
	dst = store.AppendU32(dst, uint32(len(p.GAdj)))
	total := 0
	for _, row := range p.GAdj {
		dst = store.AppendU32(dst, uint32(len(row)))
		total += len(row)
	}
	dst = store.AppendU32(dst, uint32(total))
	for _, row := range p.GAdj {
		dst = store.AppendU32s(dst, row)
	}
	if p.Sub != nil {
		dst = p.Sub.AppendRaw(dst)
	}
	dst = store.AppendU32(dst, uint32(len(p.S)))
	dst = store.AppendU32s(dst, p.S)
	dst = store.AppendU32(dst, uint32(len(p.Ext)))
	dst = store.AppendU32s(dst, p.Ext)
	return dst, nil
}

// DecodeTaskPayload implements gthinker.TaskCodec. A spill file or a
// steal frame is bytes from outside the process, so the walk also
// refuses a flag bit it does not know, and every ID a later iteration
// would index out of range: Root, GVerts and GAdj entries past the
// app's graph, a GAdj row that names its own vertex, a Sub label past
// the graph (and whatever Sub.DecodeRaw refuses), and S and Ext that
// are not disjoint sets of the Sub's local indices with S sorted (or
// that come with no Sub).
func (a *app) DecodeTaskPayload(data []byte) (any, error) {
	nv := uint32(a.g.NumVertices())
	c := store.NewCursor(data)
	p := &Payload{}
	p.Iteration = int(c.U32())
	p.Root = graph.V(c.U32())
	flags := c.U32()
	p.GVerts = c.U32s(int(c.U32()))
	rows := int(c.U32())
	rowLen := c.U32s(rows)
	flat := c.U32s(int(c.U32()))
	if err := c.Err(); err != nil {
		return nil, fmt.Errorf("miner: corrupt spilled payload: %w", err)
	}
	if flags&^payloadHasSub != 0 {
		return nil, fmt.Errorf("miner: corrupt spilled payload: unknown flag bits %#x", flags)
	}
	if p.Root >= nv {
		return nil, fmt.Errorf("miner: corrupt spilled payload: root %d out of range [0,%d)", p.Root, nv)
	}
	gadj, err := store.SplitRows(flat, rowLen)
	if err != nil {
		return nil, fmt.Errorf("miner: corrupt spilled payload: GAdj %w", err)
	}
	if rows != len(p.GVerts) {
		// GAdj is parallel to GVerts by construction; a mismatch is
		// corruption that would panic iteration 2 later.
		return nil, fmt.Errorf("miner: corrupt spilled payload: %d GAdj rows for %d GVerts",
			rows, len(p.GVerts))
	}
	for i, u := range p.GVerts {
		if u >= nv {
			return nil, fmt.Errorf("miner: corrupt spilled payload: GVerts entry %d out of range [0,%d)", u, nv)
		}
		for _, w := range gadj[i] {
			if w >= nv || w == u {
				return nil, fmt.Errorf("miner: corrupt spilled payload: GAdj entry %d in the row of %d", w, u)
			}
		}
	}
	if rows > 0 {
		p.GAdj = gadj
	}
	if flags&payloadHasSub != 0 {
		p.Sub = &quasiclique.Sub{}
		if err := p.Sub.DecodeRaw(c); err != nil {
			return nil, err
		}
	}
	p.S = c.U32s(int(c.U32()))
	p.Ext = c.U32s(int(c.U32()))
	if err := c.Err(); err != nil {
		return nil, fmt.Errorf("miner: corrupt spilled payload: %w", err)
	}
	if c.Remaining() != 0 {
		return nil, fmt.Errorf("miner: corrupt spilled payload: %d trailing bytes", c.Remaining())
	}
	if p.Sub != nil {
		if n := p.Sub.N(); n > 0 && p.Sub.Label[n-1] >= nv {
			return nil, fmt.Errorf("miner: corrupt spilled payload: Sub label %d out of range [0,%d)", p.Sub.Label[n-1], nv)
		}
	}
	if len(p.S)+len(p.Ext) > 0 {
		if p.Sub == nil {
			return nil, fmt.Errorf("miner: corrupt spilled payload: S/Ext without a Sub")
		}
		if err := checkTaskSets(p.S, p.Ext, p.Sub.N()); err != nil {
			return nil, err
		}
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
