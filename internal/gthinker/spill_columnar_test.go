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

// TestSpillRefillRoundsReclaimDisk pops each batch right after
// spilling it, 50 times over: every round gets its tasks back in order,
// and the disk accounting ends at zero.
func TestSpillRefillRoundsReclaimDisk(t *testing.T) {
	var acct diskAccount
	l := newSpillList(t.TempDir(), "col", &acct, toyCodec{}, testVertices)
	for round := 0; round < 50; round++ {
		in := mkVecTasks(8)
		if err := l.spill(in); err != nil {
			t.Fatal(err)
		}
		out, ok, err := l.refill()
		if err != nil || !ok {
			t.Fatalf("round %d: refill: %v %v", round, ok, err)
		}
		if len(out) != len(in) {
			t.Fatalf("round %d: refilled %d of %d tasks", round, len(out), len(in))
		}
		for i := range out {
			if out[i].ID != in[i].ID {
				t.Fatalf("round %d task %d: ID %d != %d", round, i, out[i].ID, in[i].ID)
			}
		}
	}
	if acct.current.Load() != 0 {
		t.Fatalf("disk accounting leaked: %d", acct.current.Load())
	}
}

// TestSpillWriteErrorSurfaces: a write that fails reports it from the
// spill call itself and leaves no file, no accounting and no listed
// batch behind.
func TestSpillWriteErrorSurfaces(t *testing.T) {
	var acct diskAccount
	root := t.TempDir()
	dir := filepath.Join(root, "missing", "deeper") // unwritable
	l := newSpillList(dir, "col", &acct, toyCodec{}, testVertices)
	if err := l.spill(mkVecTasks(2)); err == nil || !strings.Contains(err.Error(), "spill") {
		t.Fatalf("spill into a missing directory: err = %v", err)
	}
	if leftovers, _ := os.ReadDir(root); len(leftovers) != 0 {
		t.Fatalf("failed spill left files: %v", leftovers)
	}
	if acct.written.Load() != 0 || acct.current.Load() != 0 || acct.files.Load() != 0 {
		t.Fatalf("failed write was accounted: written=%d current=%d files=%d",
			acct.written.Load(), acct.current.Load(), acct.files.Load())
	}
	if n := l.count(); n != 0 {
		t.Fatalf("failed batch is listed: count = %d", n)
	}
	if _, ok, err := l.refill(); ok || err != nil {
		t.Fatalf("refill after a failed spill: ok=%v err=%v", ok, err)
	}
	l.removeAll()
	if acct.current.Load() != 0 {
		t.Fatalf("removeAll moved the accounting: %d", acct.current.Load())
	}
}
