package netgraph

import (
	"fmt"
	"sync"
)

// LazyRouting is the on-demand route oracle: instead of materializing the
// O(n²) all-pairs table it computes single-source Dijkstra rows the first
// time a source is queried and keeps the most recently used rows in a
// bounded LRU. Memory is O(capacity·n); a scenario that touches s distinct
// sources (emu.prepare resolves every flow route up front, so s is the
// number of distinct flow endpoints) pays min(s, capacity) rows.
//
// Rows come from the same dijkstraRow builder as the flat table, so answers
// are byte-identical to RoutingTable for every (src, dst) pair. Only
// non-leaf sources get rows: a leaf (see leafParents) answers through its
// parent's row, so hosts cost no rows of their own. The oracle watches its
// network's topology generation: a mutation (AddLink, AddRouter, AddHost)
// purges all cached rows on the next query, so a held reference can never
// serve stale routes.
//
// Safe for concurrent use; queries serialize on one mutex (hits are
// allocation-free, so the critical section is a map lookup plus two pointer
// swaps).
type LazyRouting struct {
	nw      *Network
	capRows int

	mu         sync.Mutex
	gen        int64
	n          int     // row length the cache was (re)built for
	parent     []int32 // leafParents of the topology the rows describe
	rows       map[int]*lazyRow
	head, tail *lazyRow // LRU list, most recent at head
	free       *lazyRow // recycled rows (singly linked via next)
	scratch    *dijkstraScratch

	hits, misses, evictions int64
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
		n:       n,
		parent:  nw.leafParents(),
		rows:    make(map[int]*lazyRow, rows),
		scratch: newDijkstraScratch(n),
	}, nil
}

// row returns the cached (or freshly computed) row for non-leaf source src.
// Caller holds mu and has called refresh.
func (l *LazyRouting) row(src int) *lazyRow {
	if r := l.rows[src]; r != nil {
		l.hits++
		l.moveToFront(r)
		return r
	}
	l.misses++
	r := l.free
	if r != nil {
		l.free = r.next
		r.next = nil
	} else {
		r = &lazyRow{nextLink: make([]int32, l.n)}
	}
	r.src = src
	l.nw.dijkstraRow(src, r.nextLink, l.parent, l.scratch)
	l.rows[src] = r
	l.pushFront(r)
	if len(l.rows) > l.capRows {
		l.evict()
	}
	return r
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
// leaves. Row buffers are recycled only while the node count is unchanged; a
// grown topology needs longer rows.
func (l *LazyRouting) purge() {
	l.parent = l.nw.leafParents()
	n := len(l.nw.Nodes)
	recycle := n == l.n
	for r := l.head; r != nil; {
		nx := r.next
		if recycle {
			r.prev, r.next = nil, l.free
			l.free = r
		}
		r = nx
	}
	if !recycle {
		l.n = n
		l.free = nil
		l.scratch = newDijkstraScratch(n)
	}
	l.head, l.tail = nil, nil
	clear(l.rows)
}

// evict removes the least recently used row into the freelist.
func (l *LazyRouting) evict() {
	t := l.tail
	if t == nil {
		return
	}
	l.evictions++
	delete(l.rows, t.src)
	l.tail = t.prev
	if l.tail != nil {
		l.tail.next = nil
	} else {
		l.head = nil
	}
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

func (l *LazyRouting) moveToFront(r *lazyRow) {
	if l.head == r {
		return
	}
	if r.prev != nil {
		r.prev.next = r.next
	}
	if r.next != nil {
		r.next.prev = r.prev
	}
	if l.tail == r {
		l.tail = r.prev
	}
	r.prev, r.next = nil, l.head
	if l.head != nil {
		l.head.prev = r
	}
	l.head = r
}

// NextLink implements Routing. A leaf source reads its parent's row.
func (l *LazyRouting) NextLink(src, dst int) int {
	l.mu.Lock()
	l.refresh()
	var v int32
	if p := l.parent[src]; p >= 0 {
		v = l.nw.leafNext(src, p, dst, l.row(int(p)).nextLink[dst])
	} else {
		v = l.row(src).nextLink[dst]
	}
	l.mu.Unlock()
	return int(v)
}

// MemoryBytes implements Routing: 4 bytes per cached (src, dst) entry, the
// same per-entry cost as the flat table over only the cached rows.
func (l *LazyRouting) MemoryBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.memoryBytesLocked()
}

func (l *LazyRouting) memoryBytesLocked() int64 {
	rowBytes := int64(l.n) * 4
	cached := int64(len(l.rows))
	// Free rows keep their backing arrays; count them too, plus the scratch
	// (dist + done + firstLink) and the leaf parents.
	for r := l.free; r != nil; r = r.next {
		cached++
	}
	return cached*rowBytes + int64(l.n)*(8+1+4+4)
}
