package serve

import (
	"container/list"

	"gthinkerqc/internal/miner"
)

// lruCache maps canonical job keys to completed results. Entries are
// immutable once inserted (the server never mutates a finished
// Result), so hits can share the pointer. Guarded by Server.mu.
type lruCache struct {
	cap     int
	order   *list.List // front = most recent
	entries map[[32]byte]*list.Element
}

type cacheEntry struct {
	key [32]byte
	res *miner.Result
}

func newLRUCache(capacity int) *lruCache {
	return &lruCache{
		cap:     capacity,
		order:   list.New(),
		entries: make(map[[32]byte]*list.Element),
	}
}

func (c *lruCache) get(key [32]byte) (*miner.Result, bool) {
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).res, true
}

func (c *lruCache) put(key [32]byte, res *miner.Result) {
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry).res = res
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, res: res})
	for c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
	}
}

func (c *lruCache) len() int {
	return c.order.Len()
}
