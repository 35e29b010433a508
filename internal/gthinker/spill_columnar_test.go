package gthinker

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gthinkerqc/internal/graph"
)

// testVertices is the vertex count the spill and steal tests decode
// against; their pulls stay below it.
const testVertices = 1 << 16

func mkVecTasks(n int) []*Task {
	ts := make([]*Task, n)
	for i := range ts {
		ts[i] = NewTask([]graph.V{graph.V(i)})
	}
	return ts
}

func TestSpillListColumnarRoundTrip(t *testing.T) {
	var acct diskAccount
	dir := t.TempDir()
	l := newSpillList(dir, "col", &acct, toyCodec{}, testVertices)
	in := make([]*Task, 10)
	for i := range in {
		in[i] = NewTask([]graph.V{graph.V(i), graph.V(i * 2)})
		in[i].Pulls = []graph.V{graph.V(i + 100)}
	}
	in[7].Payload = nil // payload-less task must survive too
	if err := l.spill(in); err != nil {
		t.Fatal(err)
	}
	if err := l.sync(); err != nil { // wait out the write-behind
		t.Fatal(err)
	}
	names, _ := filepath.Glob(filepath.Join(dir, "*.gqs"))
	if len(names) != 1 {
		t.Fatalf("want one .gqs file, got %v", names)
	}
	out, ok, err := l.refill()
	if err != nil || !ok || len(out) != 10 {
		t.Fatalf("refill: %v %v len=%d", ok, err, len(out))
	}
	for i, tk := range out {
		if tk.ID != in[i].ID || tk.Pulls[0] != graph.V(i+100) {
			t.Fatalf("task %d corrupted: %+v", i, tk)
		}
		if i == 7 {
			if tk.Payload != nil {
				t.Fatalf("task 7 payload resurrected: %v", tk.Payload)
			}
			continue
		}
		p := tk.Payload.([]graph.V)
		if p[0] != graph.V(i) || p[1] != graph.V(i*2) {
			t.Fatalf("task %d payload corrupted: %v", i, p)
		}
	}
	if acct.current.Load() != 0 || acct.read.Load() == 0 || acct.refills.Load() != 1 {
		t.Fatalf("accounting: current=%d read=%d refills=%d",
			acct.current.Load(), acct.read.Load(), acct.refills.Load())
	}
	if leftovers, _ := os.ReadDir(dir); len(leftovers) != 0 {
		t.Fatalf("refilled file not unlinked: %v", leftovers)
	}
}

func TestSpillListColumnarRejectsCorruptFile(t *testing.T) {
	var acct diskAccount
	dir := t.TempDir()
	l := newSpillList(dir, "col", &acct, toyCodec{}, testVertices)
	if err := l.spill(mkVecTasks(3)); err != nil {
		t.Fatal(err)
	}
	if err := l.sync(); err != nil {
		t.Fatal(err)
	}
	names, _ := filepath.Glob(filepath.Join(dir, "*.gqs"))
	data, err := os.ReadFile(names[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(names[0], data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.refill(); err == nil || !strings.Contains(err.Error(), "refill") {
		t.Fatalf("truncated batch refilled cleanly: %v", err)
	}
	// The failed refill must re-track the file so the shutdown sweep
	// still unlinks it and zeroes the accounting.
	l.removeAll()
	if leftovers, _ := os.ReadDir(dir); len(leftovers) != 0 {
		t.Fatalf("corrupt spill file leaked: %v", leftovers)
	}
	if acct.current.Load() != 0 {
		t.Fatalf("disk accounting leaked: %d", acct.current.Load())
	}
}

func TestSpillListRemoveAll(t *testing.T) {
	var acct diskAccount
	dir := t.TempDir()
	l := newSpillList(dir, "col", &acct, toyCodec{}, testVertices)
	for i := 0; i < 3; i++ {
		if err := l.spill(mkVecTasks(2)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.sync(); err != nil {
		t.Fatal(err)
	}
	if acct.current.Load() == 0 {
		t.Fatal("nothing on disk")
	}
	l.removeAll()
	if acct.current.Load() != 0 {
		t.Fatalf("accounting after removeAll: %d", acct.current.Load())
	}
	if leftovers, _ := os.ReadDir(dir); len(leftovers) != 0 {
		t.Fatalf("files left: %v", leftovers)
	}
	if _, ok, err := l.refill(); ok || err != nil {
		t.Fatalf("refill after removeAll: %v %v", ok, err)
	}
}
