package netgraph

import (
	"fmt"
	"sync"
)

// LazyRouting is the route oracle: it computes a destination's column — one
// Dijkstra from that destination (dijkstraColumn), holding every core node's
// first-hop link toward it — the first time the destination is queried, and
// keeps the most recently used columns in a bounded LRU. A column holds one
// next hop per routing-core node (see routeCore), so memory is
// O(capacity·k) for k core nodes. Every hop of every route toward one
// destination reads the same column, so a scenario whose flows reach d
// distinct core destinations (emu.prepare walks every flow route up front)
// pays min(d, capacity) columns, however long its routes are. Under the
// default capacity (DefaultLazyColumns) a topology of up to 8192 core nodes
// keeps every column it computes.
//
// Only core destinations get columns: a leaf is reached through its parent's
// column, and a leaf source answers from its parent's entry, so hosts cost no
// columns of their own. The oracle watches its network's topology
// generation: a mutation (AddLink, AddRouter, AddHost) purges all cached
// columns on the next query, so a held reference can never serve stale
// routes.
//
// Safe for concurrent use; queries serialize on one mutex (hits are
// allocation-free, so the critical section is a map lookup plus two pointer
// swaps).
type LazyRouting struct {
	nw      *Network
	capCols int

	mu         sync.Mutex
	gen        int64
	core       routeCore // of the topology the columns describe
	cols       map[int]*lazyCol
	head, tail *lazyCol // LRU list, most recent at head
	free       *lazyCol // recycled columns (singly linked via next)
	scratch    *dijkstraScratch
}

// lazyCol is one cached per-destination column plus its LRU links.
type lazyCol struct {
	dst        int
	nextLink   []int32
	prev, next *lazyCol
}

// NewLazyRouting returns an oracle over nw holding at most cols cached
// destination columns; cols = 0 selects the byte-budgeted capacity
// (DefaultLazyColumns) and a negative value is rejected with
// ErrRoutingConfig. Most callers want the network's shared oracle
// (Network.SharedRouting) instead.
func NewLazyRouting(nw *Network, cols int) (*LazyRouting, error) {
	if cols < 0 {
		return nil, fmt.Errorf("%w: lazy LRU size %d, must be >= 0 (0 = automatic)", ErrRoutingConfig, cols)
	}
	return newLazyRouting(nw, cols), nil
}

func newLazyRouting(nw *Network, cols int) *LazyRouting {
	c := nw.routeCore()
	if cols == 0 {
		cols = DefaultLazyColumns(c.k)
	}
	return &LazyRouting{
		nw:      nw,
		capCols: cols,
		gen:     nw.gen.Load(),
		core:    c,
		cols:    make(map[int]*lazyCol, cols),
		scratch: newDijkstraScratch(len(nw.Nodes)),
	}
}

// coreCol returns the cached (or freshly computed) column of core node dst.
// Caller holds mu and has called refresh.
func (l *LazyRouting) coreCol(dst int) []int32 {
	if c := l.cols[dst]; c != nil {
		l.moveToFront(c)
		return c.nextLink
	}
	c := l.free
	if c != nil {
		l.free = c.next
		c.next = nil
	} else {
		c = &lazyCol{nextLink: make([]int32, l.core.k)}
	}
	c.dst = dst
	l.nw.dijkstraColumn(dst, c.nextLink, &l.core, l.scratch)
	l.cols[dst] = c
	l.pushFront(c)
	if len(l.cols) > l.capCols {
		l.evict()
	}
	return c.nextLink
}

// refresh purges the cache if the topology changed since it was filled. Caller
// holds mu.
func (l *LazyRouting) refresh() {
	if g := l.nw.gen.Load(); g != l.gen {
		l.purge()
		l.gen = g
	}
}

// purge drops every cached column after a topology mutation and re-derives
// the core. Column buffers are recycled only while the core size is
// unchanged; a grown core needs longer columns. The scratch grows on its next
// use.
func (l *LazyRouting) purge() {
	c := l.nw.routeCore()
	recycle := c.k == l.core.k
	l.core = c
	for col := l.head; col != nil; {
		nx := col.next
		if recycle {
			col.prev, col.next = nil, l.free
			l.free = col
		}
		col = nx
	}
	if !recycle {
		l.free = nil
	}
	l.head, l.tail = nil, nil
	clear(l.cols)
}

// evict removes the least recently used column into the freelist. It runs
// only on an overflow, and capCols ≥ 1, so a column stays behind as the new
// tail.
func (l *LazyRouting) evict() {
	t := l.tail
	delete(l.cols, t.dst)
	l.tail = t.prev
	l.tail.next = nil
	t.prev, t.next = nil, l.free
	l.free = t
}

func (l *LazyRouting) pushFront(c *lazyCol) {
	c.prev, c.next = nil, l.head
	if l.head != nil {
		l.head.prev = c
	}
	l.head = c
	if l.tail == nil {
		l.tail = c
	}
}

// moveToFront unlinks resident column c, which has a predecessor unless it is
// already the head, and pushes it back in front.
func (l *LazyRouting) moveToFront(c *lazyCol) {
	if l.head == c {
		return
	}
	c.prev.next = c.next
	if c.next != nil {
		c.next.prev = c.prev
	} else {
		l.tail = c.prev
	}
	l.pushFront(c)
}

// next answers NextLink(src, dst) from at most one core column. A leaf
// destination reads its parent's column, or is the leaf's own link when the
// source is that parent; a leaf source reads its parent's entry and answers
// with its own link whenever its parent is, or reaches, dst. Caller holds
// l.mu and has called refresh.
func (l *LazyRouting) next(src, dst int) int32 {
	if src == dst {
		return -1
	}
	c := &l.core
	s, via := src, int32(-1)
	if p := c.parent[src]; p >= 0 {
		if int(p) == dst {
			return c.slot[src]
		}
		s, via = int(p), c.slot[src]
	}
	var hop int32
	switch p := c.parent[dst]; {
	case p < 0:
		hop = l.coreCol(dst)[c.slot[s]]
	case int(p) == s:
		hop = c.slot[dst]
	default:
		hop = l.coreCol(int(p))[c.slot[s]]
	}
	if via >= 0 && hop >= 0 {
		return via
	}
	return hop
}

// NextLink implements Routing. A leaf destination reads its parent's column.
func (l *LazyRouting) NextLink(src, dst int) int {
	l.mu.Lock()
	l.refresh()
	v := l.next(src, dst)
	l.mu.Unlock()
	return int(v)
}

// MemoryBytes implements Routing: 4 bytes (one int32 next hop) per cached
// (core src, dst) entry.
func (l *LazyRouting) MemoryBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	cached := int64(len(l.cols))
	// Free columns keep their backing arrays; count them too, plus the
	// scratch (dist + done, and the heap's 16 B pqItems) and the core mapping.
	for c := l.free; c != nil; c = c.next {
		cached++
	}
	n := int64(len(l.core.parent))
	return cached*int64(l.core.k)*4 + n*(8+1) + int64(cap(l.scratch.heap))*16 + l.core.memoryBytes()
}
