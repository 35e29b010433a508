package gthinker

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSpillRefillWaitsForWrite pops a batch right after spilling it,
// exercising the refill path that must block on the in-flight
// write-behind instead of reading a half-written file.
func TestSpillRefillWaitsForWrite(t *testing.T) {
	var acct diskAccount
	l := newSpillList(t.TempDir(), "wb", &acct, toyCodec{}, testVertices)
	for round := 0; round < 50; round++ {
		in := mkVecTasks(8)
		if err := l.spill(in); err != nil {
			t.Fatal(err)
		}
		out, ok, err := l.refill() // no sync: races the writer on purpose
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

// TestSpillRemoveAllDrainsInflight: the shutdown sweep must wait for
// the pending write so no file lands after it.
func TestSpillRemoveAllDrainsInflight(t *testing.T) {
	var acct diskAccount
	dir := t.TempDir()
	l := newSpillList(dir, "wb", &acct, toyCodec{}, testVertices)
	for i := 0; i < 5; i++ {
		if err := l.spill(mkVecTasks(3)); err != nil {
			t.Fatal(err)
		}
	}
	l.removeAll() // no sync first
	if err := l.sync(); err != nil {
		t.Fatal(err)
	}
	if leftovers, _ := os.ReadDir(dir); len(leftovers) != 0 {
		t.Fatalf("write-behind landed after removeAll: %v", leftovers)
	}
	if acct.current.Load() != 0 {
		t.Fatalf("accounting after drain: %d", acct.current.Load())
	}
}

// TestSpillWriteBehindErrorSurfaces: an async write failure must reach
// the caller — on the next spill and on the refill that pops the
// failed batch — and must not leave phantom files or accounting.
func TestSpillWriteBehindErrorSurfaces(t *testing.T) {
	var acct diskAccount
	dir := filepath.Join(t.TempDir(), "missing", "deeper") // unwritable
	l := newSpillList(dir, "wb", &acct, toyCodec{}, testVertices)
	if err := l.spill(mkVecTasks(2)); err != nil {
		t.Fatalf("first spill should fail asynchronously, got sync error: %v", err)
	}
	if err := l.sync(); err == nil {
		t.Fatal("write into a missing directory reported success")
	}
	// The next spill surfaces the sticky failure.
	if err := l.spill(mkVecTasks(2)); err == nil || !strings.Contains(err.Error(), "spill") {
		t.Fatalf("second spill error = %v", err)
	}
	// Refilling the failed entry surfaces it too (there is no file).
	if _, ok, err := l.refill(); ok || err == nil {
		t.Fatalf("refill of failed batch: ok=%v err=%v", ok, err)
	}
	if acct.written.Load() != 0 || acct.current.Load() != 0 {
		t.Fatalf("failed writes were accounted: written=%d current=%d",
			acct.written.Load(), acct.current.Load())
	}
	l.removeAll() // must not panic or unlink anything
}
