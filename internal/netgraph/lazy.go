package netgraph

import (
	"fmt"
	"sync"
)

// LazyRouting is the on-demand route oracle: instead of materializing the
// all-pairs table it computes single-source Dijkstra rows the first time a
// source is queried and keeps the most recently used rows in a bounded LRU.
// A row holds one next hop per routing-core node (see routeCore), so memory
// is O(capacity·k) for k core nodes; a scenario that touches s distinct core
// sources (emu.prepare resolves every flow route up front, so s is at most
// the number of distinct flow endpoints) pays min(s, capacity) rows.
//
// Rows come from the same dijkstraRow builder as the flat table and queries
// go through the same routeCore.next, so answers are byte-identical to
// RoutingTable for every (src, dst) pair. Only core sources get rows: a
// leaf answers through its parent's row, so hosts cost no rows of their own.
// The oracle watches its network's topology generation: a mutation (AddLink,
// AddRouter, AddHost) purges all cached rows on the next query, so a held
// reference can never serve stale routes.
//
// Safe for concurrent use; queries serialize on one mutex (hits are
// allocation-free, so the critical section is a map lookup plus two pointer
// swaps).
type LazyRouting struct {
	nw      *Network
	capRows int

	mu         sync.Mutex
	gen        int64
	core       routeCore // of the topology the rows describe
	rows       map[int]*lazyRow
	head, tail *lazyRow // LRU list, most recent at head
	free       *lazyRow // recycled rows (singly linked via next)
	scratch    *dijkstraScratch
}

// lazyRow is one cached per-source row plus its LRU links.
type lazyRow struct {
	src        int
	nextLink   []int32
	prev, next *lazyRow
}

// NewLazyRouting returns a lazy oracle over nw holding at most rows cached
// source rows; rows = 0 selects the automatic byte-budgeted capacity
// (DefaultLazyRows) and a negative value is rejected with ErrRoutingConfig.
func NewLazyRouting(nw *Network, rows int) (*LazyRouting, error) {
	if rows < 0 {
		return nil, fmt.Errorf("%w: lazy LRU size %d, must be >= 0 (0 = automatic)", ErrRoutingConfig, rows)
	}
	n := len(nw.Nodes)
	if rows == 0 {
		rows = DefaultLazyRows(n)
	}
	return &LazyRouting{
		nw:      nw,
		capRows: rows,
		gen:     nw.gen.Load(),
		core:    nw.routeCore(),
		rows:    make(map[int]*lazyRow, rows),
		scratch: newDijkstraScratch(n),
	}, nil
}

// coreRow implements coreRows: the cached (or freshly computed) row of core
// node src. Caller holds mu and has called refresh.
func (l *LazyRouting) coreRow(src int) []int32 {
	if r := l.rows[src]; r != nil {
		l.moveToFront(r)
		return r.nextLink
	}
	r := l.free
	if r != nil {
		l.free = r.next
		r.next = nil
	} else {
		r = &lazyRow{nextLink: make([]int32, l.core.k)}
	}
	r.src = src
	l.nw.dijkstraRow(src, r.nextLink, l.core.parent, l.scratch)
	l.rows[src] = r
	l.pushFront(r)
	if len(l.rows) > l.capRows {
		l.evict()
	}
	return r.nextLink
}

// refresh purges the cache if the topology changed since it was filled. Caller
// holds mu.
func (l *LazyRouting) refresh() {
	if g := l.nw.gen.Load(); g != l.gen {
		l.purge()
		l.gen = g
	}
}

// purge drops every cached row after a topology mutation and re-derives the
// core. Row buffers are recycled only while the core size is unchanged; a
// grown core needs longer rows. The scratch grows on its next use.
func (l *LazyRouting) purge() {
	c := l.nw.routeCore()
	recycle := c.k == l.core.k
	l.core = c
	for r := l.head; r != nil; {
		nx := r.next
		if recycle {
			r.prev, r.next = nil, l.free
			l.free = r
		}
		r = nx
	}
	if !recycle {
		l.free = nil
	}
	l.head, l.tail = nil, nil
	clear(l.rows)
}

// evict removes the least recently used row into the freelist. It runs only
// on an overflow, and capRows ≥ 1, so a row stays behind as the new tail.
func (l *LazyRouting) evict() {
	t := l.tail
	delete(l.rows, t.src)
	l.tail = t.prev
	l.tail.next = nil
	t.prev, t.next = nil, l.free
	l.free = t
}

func (l *LazyRouting) pushFront(r *lazyRow) {
	r.prev, r.next = nil, l.head
	if l.head != nil {
		l.head.prev = r
	}
	l.head = r
	if l.tail == nil {
		l.tail = r
	}
}

// moveToFront unlinks resident row r, which has a predecessor unless it is
// already the head, and pushes it back in front.
func (l *LazyRouting) moveToFront(r *lazyRow) {
	if l.head == r {
		return
	}
	r.prev.next = r.next
	if r.next != nil {
		r.next.prev = r.prev
	} else {
		l.tail = r.prev
	}
	l.pushFront(r)
}

// NextLink implements Routing. A leaf source reads its parent's row.
func (l *LazyRouting) NextLink(src, dst int) int {
	l.mu.Lock()
	l.refresh()
	v := l.core.next(l, src, dst)
	l.mu.Unlock()
	return int(v)
}

// MemoryBytes implements Routing: 4 bytes per cached (src, core dst) entry,
// the same per-entry cost as the flat table over only the cached rows.
func (l *LazyRouting) MemoryBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	cached := int64(len(l.rows))
	// Free rows keep their backing arrays; count them too, plus the scratch
	// (dist + done + firstLink) and the core mapping.
	for r := l.free; r != nil; r = r.next {
		cached++
	}
	n := int64(len(l.core.parent))
	return cached*int64(l.core.k)*4 + n*(8+1+4) + l.core.memoryBytes()
}
