// The chunked heap and the writer's copy-on-write clock.
//
// A table's rows live in fixed-size chunks of chunkSize tuple pointers,
// reached through a spine of chunk pointers. Copy-on-write works per
// component: a version of a table shares its spine, its chunks and the
// nodes of its tries (handle directory, secondary indexes, column
// statistics; see trie.go) with the version it was made from, and each of
// them is copied on its first mutation. A one-row update therefore copies
// one chunk, the spine and a trie path, not the table.
//
// Ownership is decided by generation. Every publish and every Begin
// advances the store's generation; every chunk, spine, trie node and index
// bucket records the generation it was made in. A component stamped with
// the current generation was made since the last publish or Begin, so
// neither a snapshot nor a version saved for Rollback can reach it, and
// the writer mutates it in place. Any other component may be reachable
// from one and is copied first. Publishing or beginning a transaction
// therefore freezes every component at once without visiting any of
// them.
package storage

// chunkSize is the number of rows per heap chunk: the unit a one-row write
// copies. A power of two, so a position splits into chunk and slot with a
// shift and a mask.
const (
	chunkShift = 8
	chunkSize  = 1 << chunkShift
	chunkMask  = chunkSize - 1
)

// cowState is the writer's copy-on-write clock: the current generation,
// advanced by every publish and Begin, and the number of cells (spine
// entries, chunk slots, trie slots, index bucket handles) that
// copy-on-write has copied so far.
type cowState struct {
	gen    uint64
	copied int64
}

// chunk is one fixed-size block of a heap. Slots at or beyond the heap's
// row count are nil.
type chunk struct {
	gen  uint64
	rows [chunkSize]*Tuple
}

// heap is a table's rows in physical order. Position p lives in slot
// p&chunkMask of chunk p>>chunkShift; the spine holds exactly
// ceil(n/chunkSize) chunks. Deletion swaps the last row into the hole, so
// scan order is deterministic for a given operation history but not
// insertion-ordered.
type heap struct {
	spine []*chunk
	n     int
	gen   uint64 // generation the spine was made in
}

// at returns the tuple at position pos (0 <= pos < n).
func (h *heap) at(pos int) *Tuple {
	return h.spine[pos>>chunkShift].rows[pos&chunkMask]
}

// View is a read-only, position-indexed view of one version of a table:
// its heap spine and row count as they stood when the view was taken.
// Positions 0..Len()-1 address the rows in physical (scan) order. A view
// of a published snapshot never changes. A view of the live store is
// valid until the writer next mutates that table: chunks of the writer's
// own generation are mutated in place, so a caller must finish reading
// before it writes.
type View struct {
	spine []*chunk
	n     int
}

// Len returns the number of rows in the view.
func (v View) Len() int { return v.n }

// At returns the tuple at position pos (0 <= pos < Len()).
func (v View) At(pos int) *Tuple {
	return v.spine[pos>>chunkShift].rows[pos&chunkMask]
}

// view returns a view of the heap as it stands.
func (h *heap) view() View { return View{spine: h.spine, n: h.n} }

// scan calls fn for every row in physical order until fn returns false.
func (h *heap) scan(fn func(*Tuple) bool) {
	left := h.n
	for _, c := range h.spine {
		rows := c.rows[:min(left, chunkSize)]
		for _, t := range rows {
			if !fn(t) {
				return
			}
		}
		left -= len(rows)
	}
}

// ownSpine makes the spine private to the writer's generation.
func (h *heap) ownSpine(w *cowState) {
	if h.gen == w.gen {
		return
	}
	spine := make([]*chunk, len(h.spine), len(h.spine)+1)
	copy(spine, h.spine)
	w.copied += int64(len(h.spine))
	h.spine, h.gen = spine, w.gen
}

// set stores t at position pos, copying the spine and pos's chunk first
// when they are not the writer's.
func (h *heap) set(w *cowState, pos int, t *Tuple) {
	h.ownSpine(w)
	i := pos >> chunkShift
	c := h.spine[i]
	if c.gen != w.gen {
		cc := *c
		cc.gen = w.gen
		c = &cc
		h.spine[i] = c
		w.copied += chunkSize
	}
	c.rows[pos&chunkMask] = t
}

// push appends t at position n.
func (h *heap) push(w *cowState, t *Tuple) {
	if h.n == len(h.spine)<<chunkShift {
		h.ownSpine(w)
		h.spine = append(h.spine, &chunk{gen: w.gen})
	}
	h.set(w, h.n, t)
	h.n++
}

// swapRemove deletes the row at pos by moving the last row into its place.
// It returns the moved tuple, or nil when pos was the last position.
func (h *heap) swapRemove(w *cowState, pos int) (moved *Tuple) {
	last := h.n - 1
	if pos != last {
		moved = h.at(last)
		h.set(w, pos, moved)
	}
	h.n = last
	if last&chunkMask == 0 {
		// The last chunk is now empty: drop it rather than copy it.
		h.ownSpine(w)
		h.spine[len(h.spine)-1] = nil
		h.spine = h.spine[:len(h.spine)-1]
	} else {
		h.set(w, last, nil)
	}
	return moved
}
