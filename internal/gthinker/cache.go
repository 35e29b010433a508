package gthinker

import (
	"sync"

	"gthinkerqc/internal/graph"
)

// vertexCache is the per-machine remote-vertex cache of Figure 8:
// adjacency lists fetched from other machines are kept while any task
// still references them and become evictable afterwards, letting
// concurrent tasks share one fetch. It is one mutex around one map,
// and the resolve path takes the mutex once per batch of tasks, not
// once per task (see worker.resolveBatch). The rows are values in one
// slice and the map holds their positions, so a row costs no
// allocation of its own and a pin or unpin hashes its id once.
//
// A cached row aliases the response frame it arrived in, and one
// frame now answers a whole batch's misses for one owner — some C
// times more rows than when every task fetched alone. An evicted
// row's bytes are therefore freed only when every row of its frame
// has been evicted: cap bounds the number of rows, not bytes.
type vertexCache struct {
	mu      sync.Mutex
	cap     int
	index   map[graph.V]int32 // id → position in rows
	rows    []cacheEntry
	free    []int32 // positions of rows that eviction vacated
	hits    uint64
	misses  uint64
	evicted uint64
}

type cacheEntry struct {
	adj  []graph.V
	refs int32
}

func newVertexCache(capacity int) *vertexCache {
	return &vertexCache{cap: capacity, index: make(map[graph.V]int32)}
}

// acquire looks up every id of one resolve batch. A row the cache
// holds is pinned once per lookup and stored at out[at[j]] for lookup
// j; the positions of the lookups it cannot answer are appended to
// missing, uncounted — insert counts them once the rows are fetched.
func (c *vertexCache) acquire(ids []graph.V, at []int32, out [][]graph.V, missing []int32) []int32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	for j, id := range ids {
		if i, ok := c.index[id]; ok {
			e := &c.rows[i]
			e.refs++
			out[at[j]] = e.adj
			c.hits++
		} else {
			missing = append(missing, int32(j))
		}
	}
	return missing
}

// insert adds the rows one batch fetched, each id once, pinned refs[i]
// times — the number of lookups of the batch that wanted it: the first
// is the miss that crossed the wire, the rest are hits on it. It then
// evicts unreferenced entries while over capacity.
func (c *vertexCache) insert(ids []graph.V, adjs [][]graph.V, refs []int32) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, id := range ids {
		// A row another worker's fetch inserted meanwhile is only pinned.
		r, ok := c.index[id]
		if !ok {
			if n := len(c.free); n > 0 {
				r, c.free = c.free[n-1], c.free[:n-1]
			} else {
				r = int32(len(c.rows))
				c.rows = append(c.rows, cacheEntry{})
			}
			c.index[id] = r
			c.rows[r].adj = adjs[i]
		}
		c.rows[r].refs += refs[i]
		c.misses++
		c.hits += uint64(refs[i] - 1)
	}
	if len(c.index) > c.cap {
		for id, r := range c.index {
			if c.rows[r].refs == 0 {
				delete(c.index, id)
				c.rows[r].adj = nil
				c.free = append(c.free, r)
				c.evicted++
				if len(c.index) <= c.cap {
					break
				}
			}
		}
	}
}

// release drops one pin per id: a task's after its Compute call
// returns (the paper: frontier data is released right after compute),
// or a failed batch's own.
func (c *vertexCache) release(ids []graph.V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, id := range ids {
		if r, ok := c.index[id]; ok && c.rows[r].refs > 0 {
			c.rows[r].refs--
		}
	}
}

// unpinAll clears every pin while keeping the cached rows. ResetJob
// calls it between jobs, when no task can legitimately hold a
// reference: a cancelled job abandons pinned tasks in its ready
// buffers, and without this the leaked pins would make those entries
// unevictable forever.
func (c *vertexCache) unpinAll() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.rows {
		c.rows[i].refs = 0
	}
}

func (c *vertexCache) stats() (hits, misses, evicted uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evicted
}
