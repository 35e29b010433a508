package miner

import (
	"bytes"
	"context"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"gthinkerqc/internal/datagen"
	"gthinkerqc/internal/graph"
	"gthinkerqc/internal/gthinker"
	"gthinkerqc/internal/quasiclique"
	"gthinkerqc/internal/store"
)

// codecApp is an app over an edgeless n-vertex graph: the codec reads
// only the graph's vertex count, which bounds every decoded ID.
func codecApp(n int) *app {
	return &app{g: graph.NewBuilder(n).MustBuild()}
}

func codecRoundTrip(t *testing.T, a *app, p *Payload) *Payload {
	t.Helper()
	data, err := a.AppendTaskPayload(nil, p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := a.DecodeTaskPayload(data)
	if err != nil {
		t.Fatal(err)
	}
	return got.(*Payload)
}

// TestPayloadCodecRoundTrip covers the two task shapes a queue holds —
// a spawned root and a decomposed subtask — pinning the raw codec
// field by field (nil and empty slices are not told apart, as the
// engine never distinguishes them).
func TestPayloadCodecRoundTrip(t *testing.T) {
	a := codecApp(256)
	sub := quasiclique.SubFromGraph(datagen.ErdosRenyi(60, 0.2, 1), []graph.V{0, 1, 2, 3, 4, 5, 6, 7})
	cases := []*Payload{
		{Iteration: 1, Root: 42},
		{Iteration: 3, Root: 0, Sub: sub, S: []uint32{0}, Ext: []uint32{1, 2, 3, 5}},
		{Iteration: 3, Root: 5, Sub: quasiclique.SubFromGraph(datagen.ErdosRenyi(60, 0.2, 1), []graph.V{5}), S: []uint32{0}},
	}
	for i, p := range cases {
		got := codecRoundTrip(t, a, p)
		if got.Iteration != p.Iteration || got.Root != p.Root {
			t.Fatalf("case %d: header %d/%d vs %d/%d", i, got.Iteration, got.Root, p.Iteration, p.Root)
		}
		if len(got.S) != len(p.S) || len(got.Ext) != len(p.Ext) {
			t.Fatalf("case %d: slice lengths differ: %+v vs %+v", i, got, p)
		}
		for j := range p.S {
			if got.S[j] != p.S[j] {
				t.Fatalf("case %d: S[%d]", i, j)
			}
		}
		for j := range p.Ext {
			if got.Ext[j] != p.Ext[j] {
				t.Fatalf("case %d: Ext[%d]", i, j)
			}
		}
		if (got.Sub == nil) != (p.Sub == nil) {
			t.Fatalf("case %d: Sub presence", i)
		}
		if p.Sub != nil && !sameSub(got.Sub, p.Sub) {
			t.Fatalf("case %d: Sub differs", i)
		}
	}
}

// sameSub reports whether two Subs hold the same labels and edges,
// whatever their form: AppendRaw writes both as the same canonical
// rows record.
func sameSub(a, b *quasiclique.Sub) bool {
	return bytes.Equal(a.AppendRaw(nil), b.AppendRaw(nil))
}

func TestPayloadCodecRejectsCorruption(t *testing.T) {
	a := codecApp(60)
	sub := quasiclique.SubFromGraph(datagen.ErdosRenyi(40, 0.2, 2), []graph.V{0, 1, 2, 3, 4})
	good, err := a.AppendTaskPayload(nil, &Payload{Iteration: 3, Root: 0, Sub: sub, S: []uint32{0}, Ext: []uint32{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= len(good); i++ {
		if i == len(good) {
			continue // full input is the valid case
		}
		if _, err := a.DecodeTaskPayload(good[:i]); err == nil {
			t.Fatalf("truncation to %d bytes decoded cleanly", i)
		}
	}
	if _, err := a.DecodeTaskPayload(append(append([]byte(nil), good...), 0, 0, 0, 0)); err == nil {
		t.Fatal("trailing bytes decoded cleanly")
	}
	// The subtask record under another iteration word: 1 makes a root
	// record followed by a Sub, the others name iterations no queue
	// holds (2 waits on its worker's pending list).
	for _, it := range []byte{0, 1, 2, 7} {
		bad := append([]byte(nil), good...)
		bad[0] = it
		if _, err := a.DecodeTaskPayload(bad); err == nil {
			t.Errorf("subtask record relabelled iteration %d decoded cleanly", it)
		}
		if _, err := a.DecodeTaskPayload(bad[:8]); err == nil && it != 1 {
			t.Errorf("an iteration-%d header decoded cleanly", it)
		}
	}
	for _, p := range []any{
		"not a payload",
		// Members 7 and 9, with rows {9} and {7}.
		&Payload{Iteration: 2, Root: 7, Partial: partialGraph{2, 7, 9, 6, 7, 8, 9, 7}},
		&Payload{Iteration: 3, Root: 0, S: []uint32{0}, Ext: []uint32{1}}, // a subtask without a Sub
	} {
		if _, err := a.AppendTaskPayload(nil, p); err == nil {
			t.Errorf("%+v encoded: no queue holds it", p)
		}
	}

	// Well-formed bytes naming IDs a later iteration would index out of
	// range: each must be refused at decode, not panic in Compute.
	sub8 := quasiclique.SubFromGraph(datagen.ErdosRenyi(60, 0.2, 1), []graph.V{0, 1, 2, 3, 4, 5, 6, 7})
	for _, tc := range []struct {
		name string
		p    *Payload
	}{
		{"root past |V|", &Payload{Iteration: 1, Root: 100000}},
		{"subtask root past |V|", &Payload{Iteration: 3, Root: 60, Sub: sub8,
			S: []uint32{0}, Ext: []uint32{1}}},
		{"S and Ext past an empty Sub", &Payload{Iteration: 3, Root: 0, Sub: &quasiclique.Sub{},
			S: []uint32{0}, Ext: []uint32{1}}},
		{"empty Sub, S and Ext", &Payload{Iteration: 3, Root: 0, Sub: &quasiclique.Sub{}}},
		{"empty S", &Payload{Iteration: 3, Root: 0, Sub: sub8, Ext: []uint32{1, 2}}},
		{"Ext index past the Sub", &Payload{Iteration: 3, Root: 0, Sub: sub8,
			S: []uint32{0}, Ext: []uint32{1, 2, 3, 500}}},
		{"S index past the Sub", &Payload{Iteration: 3, Root: 0, Sub: sub8,
			S: []uint32{8}, Ext: []uint32{1}}},
		{"S out of order", &Payload{Iteration: 3, Root: 0, Sub: sub8,
			S: []uint32{2, 1}, Ext: []uint32{3}}},
		{"S entry repeated", &Payload{Iteration: 3, Root: 0, Sub: sub8,
			S: []uint32{1, 1}, Ext: []uint32{3}}},
		{"Ext entry repeated", &Payload{Iteration: 3, Root: 0, Sub: sub8,
			S: []uint32{0}, Ext: []uint32{3, 5, 3}}},
		{"Ext entry in S", &Payload{Iteration: 3, Root: 0, Sub: sub8,
			S: []uint32{0, 4}, Ext: []uint32{1, 4}}},
		{"Sub label past |V|", &Payload{Iteration: 3, Root: 0,
			Sub: &quasiclique.Sub{Label: []graph.V{0, 60}, Adj: [][]uint32{{1}, {0}}},
			S:   []uint32{0}, Ext: []uint32{1}}},
	} {
		data, err := a.AppendTaskPayload(nil, tc.p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.DecodeTaskPayload(data); err == nil {
			t.Errorf("%s: decoded cleanly", tc.name)
		}
	}
}

// assertNoFiles fails if any regular file is left under dir.
func assertNoFiles(t *testing.T, dir string) {
	t.Helper()
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			t.Errorf("leftover spill file %s", path)
		} else if path != dir {
			t.Errorf("leftover spill directory %s", path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSpillDirEmptyAfterCancel: even a cancelled run (which strands
// spilled batches that were never refilled) must clean its SpillDir.
func TestSpillDirEmptyAfterCancel(t *testing.T) {
	g := randomGraph(3, 30, 0.3)
	par := quasiclique.Params{Gamma: 0.6, MinSize: 3}
	dir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	// QueueCap == BatchSize: any spawn batch or subtask burst landing
	// on a non-empty queue overflows it to disk.
	_, err := MineContext(ctx, g, Config{Params: par, TauTime: time.Nanosecond},
		gthinker.Config{Machines: 2, WorkersPerMachine: 2, QueueCap: 4, BatchSize: 4, SpillDir: dir})
	_ = err // cancellation error (or none, if the run won the race) is fine
	assertNoFiles(t, dir)
}

// TestPayloadRawViaStoreBatch threads a payload through the full GQS1
// batch framing (the exact on-disk path) rather than the codec alone.
func TestPayloadRawViaStoreBatch(t *testing.T) {
	a := codecApp(50)
	sub := quasiclique.SubFromGraph(datagen.ErdosRenyi(50, 0.25, 4), []graph.V{0, 2, 4, 6, 8})
	p := &Payload{Iteration: 3, Root: 0, Sub: sub, S: []uint32{0, 1}, Ext: []uint32{2, 3, 4}}
	var enc store.BatchEncoder
	enc.Reset()
	buf := enc.BeginRecord()
	buf, err := a.AppendTaskPayload(buf, p)
	if err != nil {
		t.Fatal(err)
	}
	enc.EndRecord(buf)
	path := filepath.Join(t.TempDir(), "batch.gqs")
	if err := os.WriteFile(path, enc.Finish(), 0o644); err != nil {
		t.Fatal(err)
	}
	d, _, err := store.ReadBatchFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := d.Next()
	if err != nil || rec == nil {
		t.Fatal(err)
	}
	got, err := a.DecodeTaskPayload(rec)
	if err != nil {
		t.Fatal(err)
	}
	if !sameSub(got.(*Payload).Sub, sub) {
		t.Fatal("Sub corrupted through batch framing")
	}
}

// goldenSubtask is the iteration-3 subtask that TestTaskPayloadGolden
// pins: the child ⟨{0}, {3, 1, 4}⟩ of a five-vertex task, compacted
// from the bound matrix as the app's offload does. Parent vertex 2
// (label 9) is outside K = {0, 1, 3, 4} and adjacent to 1 and 4, so it
// would extend the set {0, 1, 4} the child may emit (to {0, 1, 2, 4},
// every degree 2), and the child carries it as a witness row.
func goldenSubtask() *Payload {
	parent := &quasiclique.Sub{
		Label: []graph.V{3, 8, 9, 12, 20},
		Adj:   [][]uint32{{1, 3, 4}, {0, 2, 3}, {1, 4}, {0, 1, 4}, {0, 2, 3}},
	}
	m := quasiclique.NewPooledMiner(quasiclique.Params{Gamma: 0.5, MinSize: 2}, quasiclique.Options{})
	m.Reset(parent)
	child, s, ext := m.Subtask([]uint32{0}, []uint32{3, 1, 4})
	return &Payload{Iteration: 3, Root: 3, Sub: child, S: s, Ext: ext}
}

// TestTaskPayloadGolden pins one subtask record byte for byte: the
// layout is the app's wire (a stolen task crosses it), so a change to
// it must move jobSpecMagic, not only this hex. The record now carries
// a witness row (local 2, in neither S nor Ext, listed by no other
// row), but its layout is the one QJS8 always had: a rows Sub, then S
// and Ext as local indices of it. A decoder that predates witness rows
// reads it as a Sub with one vertex outside S ∪ Ext, which it never
// mines and which changes no other row's two-hop reach, and a new
// decoder reads an old record as a child without witnesses; both mine
// either one exactly. So jobSpecMagic stays.
func TestTaskPayloadGolden(t *testing.T) {
	const golden = "03000000" + "03000000" + // iteration, root
		"05000000" + "03000000" + "08000000" + "09000000" + "0c000000" + "14000000" + // n, labels {3, 8, 9, 12, 20}
		"1a00000000000000" + "0900000000000000" + "1200000000000000" + "1300000000000000" + "0900000000000000" + // rows {1,3,4} {0,3} {1,4} {0,1,4} {0,3}
		"01000000" + "00000000" + "03000000" + "01000000" + "03000000" + "04000000" // S {0}, Ext {1, 3, 4}
	a := codecApp(64)
	p := goldenSubtask()
	data, err := a.AppendTaskPayload(nil, p)
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(data); got != golden {
		t.Fatalf("subtask record changed:\n got  %s\n want %s", got, golden)
	}
	raw, _ := hex.DecodeString(golden)
	back, err := a.DecodeTaskPayload(raw)
	if err != nil {
		t.Fatal(err)
	}
	q := back.(*Payload)
	if q.Iteration != 3 || q.Root != 3 || !sameSub(q.Sub, p.Sub) || !slices.Equal(q.S, p.S) || !slices.Equal(q.Ext, p.Ext) {
		t.Fatalf("golden bytes decode to %+v", q)
	}
}

// FuzzDecodeTaskPayload feeds arbitrary bytes to the decoder a steal
// frame and a spill file reach: it must refuse garbage with an error,
// never panic; whatever it accepts must re-encode to the same bytes;
// and mining an accepted task (binding its Sub and running
// RecursiveMine on its S and Ext, as iteration 3 does) must not panic.
func FuzzDecodeTaskPayload(f *testing.F) {
	a := codecApp(256)
	for _, p := range []*Payload{
		goldenSubtask(),
		{Iteration: 1, Root: 42},
	} {
		data, err := a.AppendTaskPayload(nil, p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	// A two-word subtask of a 90-vertex task.
	wide := quasiclique.SubFromGraph(datagen.ErdosRenyi(90, 0.5, 6), allVerts(90))
	m := quasiclique.NewPooledMiner(quasiclique.Params{Gamma: 0.5, MinSize: 2}, quasiclique.Options{})
	m.Reset(wide)
	child, s, ext := m.Subtask([]uint32{2, 40}, []uint32{89, 0, 64, 63, 65, 7, 70, 12})
	data, err := a.AppendTaskPayload(nil, &Payload{Iteration: 3, Root: 0, Sub: child, S: s, Ext: ext})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	// The smallest subtask: one vertex, its root, nothing left to add.
	data, err = a.AppendTaskPayload(nil, &Payload{Iteration: 3, Root: 5,
		Sub: quasiclique.SubFromGraph(datagen.ErdosRenyi(60, 0.2, 1), []graph.V{5}), S: []uint32{0}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)

	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := a.DecodeTaskPayload(data)
		if err != nil {
			return
		}
		p := v.(*Payload)
		again, err := a.AppendTaskPayload(nil, p)
		if err != nil || !bytes.Equal(again, data) {
			t.Fatalf("accepted payload does not re-encode to itself: %v", err)
		}
		if p.Sub == nil {
			return
		}
		m := quasiclique.NewPooledMiner(quasiclique.Params{Gamma: 0.6, MinSize: 3}, quasiclique.Options{})
		m.Emit = func(locals []uint32) { m.Sub.Labels(locals) }
		m.Abort = func() bool { return m.Nodes > 20000 } // bound a dense accepted Sub's search
		m.Reset(p.Sub)
		m.RecursiveMine(p.S, p.Ext)
	})
}

func allVerts(n int) []graph.V {
	all := make([]graph.V, n)
	for i := range all {
		all[i] = graph.V(i)
	}
	return all
}
