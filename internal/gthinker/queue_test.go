package gthinker

import (
	"sync"
	"testing"

	"gthinkerqc/internal/graph"
)

func mkTasks(n int) []*Task {
	ts := make([]*Task, n)
	for i := range ts {
		ts[i] = NewTask(i)
	}
	return ts
}

func TestDequeFIFOAndBatch(t *testing.T) {
	var d deque
	ts := mkTasks(5)
	for _, tk := range ts {
		d.pushBack(tk)
	}
	if d.len() != 5 {
		t.Fatalf("len = %d", d.len())
	}
	// Tail batch takes the last 2.
	batch := d.popBackBatch(2)
	if len(batch) != 2 || batch[0] != ts[3] || batch[1] != ts[4] {
		t.Fatalf("batch = %v", batch)
	}
	// FIFO from the front.
	if d.popFront() != ts[0] || d.popFront() != ts[1] || d.popFront() != ts[2] {
		t.Fatal("FIFO order broken")
	}
	if d.popFront() != nil {
		t.Fatal("empty pop should be nil")
	}
	// Oversized batch is clamped.
	d.pushBack(ts[0])
	if got := d.popBackBatch(10); len(got) != 1 {
		t.Fatalf("clamped batch = %d", len(got))
	}
	if got := d.popBackBatch(3); got != nil {
		t.Fatalf("batch from empty = %v", got)
	}
}

func TestDequePushFront(t *testing.T) {
	var d deque
	a, b := NewTask(1), NewTask(2)
	d.pushBack(a)
	d.pushFront(b)
	if d.popFront() != b || d.popFront() != a {
		t.Fatal("pushFront order broken")
	}
}

func TestLockedDequeTryPop(t *testing.T) {
	var q lockedDeque
	q.pushBackAll([]*Task{NewTask(1)})
	q.mu.Lock()
	if _, ok := q.tryPopFront(); ok {
		t.Fatal("tryPopFront succeeded while locked")
	}
	q.mu.Unlock()
	tk, ok := q.tryPopFront()
	if !ok || tk == nil {
		t.Fatal("tryPopFront failed while unlocked")
	}
}

func TestReadyConcurrent(t *testing.T) {
	var r ready
	const n = 200
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < n; j++ {
				r.push(NewTask(j))
			}
		}()
	}
	wg.Wait()
	got := 0
	for r.pop() != nil {
		got++
	}
	if got != 4*n {
		t.Fatalf("popped %d, want %d", got, 4*n)
	}
}

func TestSpillListRoundTrip(t *testing.T) {
	var acct diskAccount
	l := newSpillList(t.TempDir(), "test", &acct, toyCodec{}, testVertices)
	in := make([]*Task, 10)
	for i := range in {
		in[i] = NewTask([]graph.V{graph.V(i), graph.V(i * 2)})
		in[i].Pulls = []graph.V{graph.V(i + 100)}
	}
	if err := l.spill(in); err != nil {
		t.Fatal(err)
	}
	if l.count() != 10 {
		t.Fatalf("count = %d", l.count())
	}
	if acct.current.Load() <= 0 || acct.peak.Load() <= 0 {
		t.Fatalf("accounting: %+v", acct.current.Load())
	}
	out, ok, err := l.refill()
	if err != nil || !ok {
		t.Fatalf("refill: %v %v", ok, err)
	}
	if len(out) != 10 {
		t.Fatalf("refilled %d tasks", len(out))
	}
	for i, tk := range out {
		p := tk.Payload.([]graph.V)
		if p[0] != graph.V(i) || tk.Pulls[0] != graph.V(i+100) {
			t.Fatalf("task %d corrupted: %+v", i, tk)
		}
	}
	if acct.current.Load() != 0 {
		t.Fatalf("disk not reclaimed: %d", acct.current.Load())
	}
	// Empty refill.
	if _, ok, _ := l.refill(); ok {
		t.Fatal("refill from empty list")
	}
	// LIFO order across files.
	l.spill(mkTasks(1))
	l.spill(in[:2])
	got, _, _ := l.refill()
	if len(got) != 2 {
		t.Fatalf("LIFO refill returned %d tasks, want newest file (2)", len(got))
	}
}

func TestSpillEmptyBatchNoop(t *testing.T) {
	var acct diskAccount
	l := newSpillList(t.TempDir(), "x", &acct, toyCodec{}, testVertices)
	if err := l.spill(nil); err != nil {
		t.Fatal(err)
	}
	if l.count() != 0 || acct.files.Load() != 0 {
		t.Fatal("empty spill created a file")
	}
}

func TestVertexCache(t *testing.T) {
	c := newVertexCache(2)
	ids, at := []graph.V{1, 2}, []int32{0, 1}
	out := make([][]graph.V, 2)
	missing := c.acquire(ids, at, out, nil)
	if len(missing) != 2 {
		t.Fatalf("missing = %v", missing)
	}
	c.insert(ids, [][]graph.V{{9}, {8}}, []int32{1, 1})
	missing = c.acquire(ids, at, out, nil)
	if len(missing) != 0 || out[0][0] != 9 || out[1][0] != 8 {
		t.Fatalf("acquire after insert: missing=%v out=%v", missing, out)
	}
	// Entries are pinned twice (insert + acquire): eviction must skip
	// them even over capacity.
	c.insert([]graph.V{3}, [][]graph.V{{7}}, []int32{1}) // over cap, but 1 and 2 are pinned
	if _, ok := c.index[1]; !ok {
		t.Fatal("pinned entry evicted")
	}
	// Release everything: next insert evicts someone.
	c.release([]graph.V{1, 1, 2, 2, 3})
	if n := c.pinnedRows(); n != 0 {
		t.Fatalf("%d rows still pinned after releasing every pin", n)
	}
	// One id wanted by three lookups of a batch: one miss, two hits,
	// three pins.
	c.insert([]graph.V{4}, [][]graph.V{{6}}, []int32{3})
	if len(c.index) > 3 {
		t.Fatalf("cache grew unbounded: %d", len(c.index))
	}
	if e := c.rows[c.index[4]]; e.refs != 3 {
		t.Fatalf("row wanted by 3 lookups holds %d pins", e.refs)
	}
	hits, misses, _ := c.stats()
	if hits != 4 || misses != 4 {
		t.Fatalf("stats: hits=%d misses=%d", hits, misses)
	}
}

func TestOwnerPartitionCovers(t *testing.T) {
	counts := make([]int, 4)
	for v := 0; v < 4000; v++ {
		o := owner(graph.V(v), 4)
		if o < 0 || o >= 4 {
			t.Fatalf("owner out of range: %d", o)
		}
		counts[o]++
	}
	for i, c := range counts {
		if c < 700 || c > 1300 {
			t.Fatalf("partition %d badly skewed: %v", i, counts)
		}
	}
	if owner(42, 1) != 0 {
		t.Fatal("single machine must own everything")
	}
}
