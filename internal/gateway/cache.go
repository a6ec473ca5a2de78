package gateway

import (
	"castencil/internal/server"
)

// entry is one cached terminal result, an intrusive node of the LRU list.
type entry struct {
	fp         string
	res        *server.Result
	size       int64
	prev, next *entry
}

// cache is the content-addressed result store: fingerprint -> terminal
// result, bounded by both an entry count and a byte budget (the byte size
// of an entry is its marshaled result, grid data included, so the budget
// tracks real memory, not job counts). Eviction is strict LRU — a repeated
// fleet working set stays resident while one-off jobs age out. Methods
// require the gateway mutex; the cache itself has no lock because every
// operation is O(1) pointer surgery plus a map probe.
type cache struct {
	maxEntries int
	maxBytes   int64

	entries map[string]*entry
	head    *entry // most recently used
	tail    *entry // least recently used
	bytes   int64
}

func newCache(maxEntries int, maxBytes int64) *cache {
	return &cache{maxEntries: maxEntries, maxBytes: maxBytes, entries: make(map[string]*entry)}
}

// get returns the cached result for fp, promoting it to MRU.
func (c *cache) get(fp string) (*server.Result, int64, bool) {
	e, ok := c.entries[fp]
	if !ok {
		return nil, 0, false
	}
	c.unlink(e)
	c.push(e)
	return e.res, e.size, true
}

// put inserts (or refreshes) fp's result and evicts LRU entries until both
// caps hold again, returning how many entries were evicted. A result larger
// than the whole byte budget is not admitted at all (it would evict
// everything and then still not fit).
func (c *cache) put(fp string, res *server.Result, size int64) (evicted int) {
	if size > c.maxBytes {
		if e, ok := c.entries[fp]; ok {
			c.drop(e)
			evicted++
		}
		return evicted
	}
	if e, ok := c.entries[fp]; ok {
		c.bytes += size - e.size
		e.res, e.size = res, size
		c.unlink(e)
		c.push(e)
	} else {
		e = &entry{fp: fp, res: res, size: size}
		c.entries[fp] = e
		c.bytes += size
		c.push(e)
	}
	for (len(c.entries) > c.maxEntries || c.bytes > c.maxBytes) && c.tail != nil {
		c.drop(c.tail)
		evicted++
	}
	return evicted
}

func (c *cache) len() int    { return len(c.entries) }
func (c *cache) size() int64 { return c.bytes }

func (c *cache) push(e *entry) {
	e.prev, e.next = nil, c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *cache) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *cache) drop(e *entry) {
	c.unlink(e)
	delete(c.entries, e.fp)
	c.bytes -= e.size
}

// flight is one singleflight group: the leader executes, every identical
// concurrent submission rides along and completes with the leader's result.
type flight struct {
	leader  *Job
	waiters []*Job
}
