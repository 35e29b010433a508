package gthinker

import "sync"

// deque is a slice-backed double-ended task queue. The zero value is
// ready to use. It is not internally synchronized: Qlocal is owned by
// one worker; Qglobal wraps it in lockedDeque.
type deque struct {
	items []*Task
}

func (d *deque) len() int { return len(d.items) }

// pushBack appends t.
func (d *deque) pushBack(t *Task) { d.items = append(d.items, t) }

// pushFront prepends t (used when re-queuing partially computed
// tasks so they finish, releasing memory, before fresh ones start).
func (d *deque) pushFront(t *Task) {
	d.items = append([]*Task{t}, d.items...)
}

// popFront removes and returns the head, or nil.
func (d *deque) popFront() *Task {
	if len(d.items) == 0 {
		return nil
	}
	t := d.items[0]
	d.items[0] = nil
	d.items = d.items[1:]
	return t
}

// popFrontBatch moves up to n tasks from the head onto dst (one
// resolve batch: the tasks that run next).
func (d *deque) popFrontBatch(dst []*Task, n int) []*Task {
	n = min(n, len(d.items))
	dst = append(dst, d.items[:n]...)
	clear(d.items[:n])
	d.items = d.items[n:]
	return dst
}

// popBackBatch removes up to n tasks from the tail (the spill victim
// set: the tasks that would run last anyway).
func (d *deque) popBackBatch(n int) []*Task {
	if n > len(d.items) {
		n = len(d.items)
	}
	if n == 0 {
		return nil
	}
	cut := len(d.items) - n
	batch := make([]*Task, n)
	copy(batch, d.items[cut:])
	for i := cut; i < len(d.items); i++ {
		d.items[i] = nil
	}
	d.items = d.items[:cut]
	return batch
}

// pushBackAll appends all of ts.
func (d *deque) pushBackAll(ts []*Task) { d.items = append(d.items, ts...) }

// lockedDeque is a mutex-protected deque with TryLock support for the
// paper's pop path: a worker that fails the global-queue try-lock
// falls back to its local queue instead of blocking.
type lockedDeque struct {
	mu sync.Mutex
	d  deque
}

func (q *lockedDeque) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.d.len()
}

func (q *lockedDeque) pushBackAll(ts []*Task) {
	q.mu.Lock()
	q.d.pushBackAll(ts)
	q.mu.Unlock()
}

// tryPopFront attempts a non-blocking pop; ok=false means the lock was
// contended (case I of the paper's pop logic).
func (q *lockedDeque) tryPopFront() (t *Task, ok bool) {
	if !q.mu.TryLock() {
		return nil, false
	}
	t = q.d.popFront()
	q.mu.Unlock()
	return t, true
}

func (q *lockedDeque) popFront() *Task {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.d.popFront()
}

func (q *lockedDeque) popBackBatch(n int) []*Task {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.d.popBackBatch(n)
}

// ready is an unbounded multi-producer multi-consumer buffer of big
// tasks whose pulled data is available (Bglobal). Blocal, which only
// its worker touches, is a plain slice on the worker.
type ready struct {
	mu sync.Mutex
	d  deque
}

func (r *ready) push(t *Task) {
	r.mu.Lock()
	r.d.pushBack(t)
	r.mu.Unlock()
}

func (r *ready) pop() *Task {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.d.popFront()
}

func (r *ready) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.d.len()
}
