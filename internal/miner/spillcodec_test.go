package miner

import (
	"context"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
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

// TestPayloadCodecRoundTrip covers the payload shapes of all three
// compute iterations, pinning the raw codec against reflect.DeepEqual
// (with nil/empty slices normalized, which the engine never
// distinguishes).
func TestPayloadCodecRoundTrip(t *testing.T) {
	a := codecApp(256)
	sub := quasiclique.SubFromGraph(datagen.ErdosRenyi(60, 0.2, 1), []graph.V{0, 1, 2, 3, 4, 5, 6, 7})
	cases := []*Payload{
		{Iteration: 1, Root: 42},
		{Iteration: 2, Root: 7,
			GVerts: []graph.V{7, 9, 13},
			GAdj:   [][]graph.V{{9, 13}, {7, 200}, {}}},
		{Iteration: 3, Root: 0, Sub: sub, S: []uint32{0}, Ext: []uint32{1, 2, 3, 5}},
		{Iteration: 3, Root: 0, Sub: &quasiclique.Sub{}, S: []uint32{}, Ext: nil},
	}
	for i, p := range cases {
		got := codecRoundTrip(t, a, p)
		if got.Iteration != p.Iteration || got.Root != p.Root {
			t.Fatalf("case %d: header %d/%d vs %d/%d", i, got.Iteration, got.Root, p.Iteration, p.Root)
		}
		if len(got.GVerts) != len(p.GVerts) || len(got.GAdj) != len(p.GAdj) ||
			len(got.S) != len(p.S) || len(got.Ext) != len(p.Ext) {
			t.Fatalf("case %d: slice lengths differ: %+v vs %+v", i, got, p)
		}
		for j := range p.GVerts {
			if got.GVerts[j] != p.GVerts[j] {
				t.Fatalf("case %d: GVerts[%d]", i, j)
			}
		}
		for j := range p.GAdj {
			if len(got.GAdj[j]) != len(p.GAdj[j]) {
				t.Fatalf("case %d: GAdj[%d] length", i, j)
			}
			for k := range p.GAdj[j] {
				if got.GAdj[j][k] != p.GAdj[j][k] {
					t.Fatalf("case %d: GAdj[%d][%d]", i, j, k)
				}
			}
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
		if p.Sub != nil && !reflect.DeepEqual(normalizeSub(got.Sub), normalizeSub(p.Sub)) {
			t.Fatalf("case %d: Sub differs", i)
		}
	}
}

func normalizeSub(s *quasiclique.Sub) *quasiclique.Sub {
	out := &quasiclique.Sub{Label: append([]graph.V{}, s.Label...), Adj: make([][]uint32, len(s.Adj))}
	for i, row := range s.Adj {
		out.Adj[i] = append([]uint32{}, row...)
	}
	return out
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
	if _, err := a.AppendTaskPayload(nil, "not a payload"); err == nil {
		t.Fatal("foreign payload type accepted")
	}

	// Well-formed bytes naming IDs a later iteration would index out of
	// range: each must be refused at decode, not panic in Compute.
	sub8 := quasiclique.SubFromGraph(datagen.ErdosRenyi(60, 0.2, 1), []graph.V{0, 1, 2, 3, 4, 5, 6, 7})
	for _, tc := range []struct {
		name string
		p    *Payload
	}{
		{"root past |V|", &Payload{Iteration: 1, Root: 100000}},
		{"GVerts entry past |V|", &Payload{Iteration: 2, Root: 7,
			GVerts: []graph.V{7, 60}, GAdj: [][]graph.V{{60}, {7}}}},
		{"GAdj entry past |V|", &Payload{Iteration: 2, Root: 7,
			GVerts: []graph.V{7, 9}, GAdj: [][]graph.V{{9, 4000}, {7}}}},
		{"GAdj row names its own vertex", &Payload{Iteration: 2, Root: 7,
			GVerts: []graph.V{7, 9}, GAdj: [][]graph.V{{7, 9}, {7}}}},
		{"Ext index past the Sub", &Payload{Iteration: 3, Root: 0, Sub: sub8,
			S: []uint32{0}, Ext: []uint32{1, 2, 3, 500}}},
		{"S index past the Sub", &Payload{Iteration: 3, Root: 0, Sub: sub8,
			S: []uint32{8}, Ext: []uint32{1}}},
		{"S and Ext without a Sub", &Payload{Iteration: 3, Root: 0,
			S: []uint32{0}, Ext: []uint32{1}}},
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
	if !reflect.DeepEqual(normalizeSub(got.(*Payload).Sub), normalizeSub(sub)) {
		t.Fatal("Sub corrupted through batch framing")
	}
}
