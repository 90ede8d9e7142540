// The persistent hash trie behind column statistics, secondary indexes and
// the handle directory.
//
// A trie is a hash array mapped trie (Bagwell, "Ideal Hash Trees", 2001):
// each level consumes trieBits bits of the key's 64-bit hash and holds its
// occupied slots compressed behind a 32-bit bitmap. A slot is either an
// entry or a child node. A set of at most leafWidth keys is one flat node
// with no bitmap; a flat node that would outgrow leafWidth bursts into a
// bitmap node. Once the hash is used up, a flat node is the list of keys
// whose hashes collide in full, and it grows without bound.
//
// Nodes carry the store generation, as heap chunks do (heap.go): the writer
// mutates a node of the current generation in place and copies any other
// node first, so a write copies one root-to-leaf path and a publish or a
// Begin freezes every trie without visiting it. A node is one slice, allocated
// as one object: slot 0 is its header, whose hash field holds the node's
// generation. The node's bitmap lives in the slot that points to it (the
// trie itself, for the root), in that slot's hash field; a bitmap of 0
// marks a flat node. An empty trie holds no node.
package storage

import (
	"fmt"
	"math/bits"
)

// trieKey is a key a trie can hold.
type trieKey interface {
	comparable
	Hash() uint64
}

const (
	trieBits  = 5
	trieFan   = 1 << trieBits // slots of a bitmap node
	trieMask  = trieFan - 1
	leafWidth = 32 // entries of a flat node before it bursts
	hashBits  = 64 // a flat node at this shift holds full collisions
	newSpare  = 2  // spare slots of a new flat node
)

// trie maps keys to values. Copying a trie copies its root reference:
// the copy and the original share every node, and the generation stamps
// decide which of them a write may mutate in place.
type trie[K trieKey, V any] struct {
	root tnode[K, V]
	bits uint32 // the root's bitmap; 0 while the root is flat
	n    int    // number of keys
}

// tnode is one trie node: slot 0 is the header, the others its entries
// and children in bitmap order.
type tnode[K trieKey, V any] []tslot[K, V]

// tslot is one slot of a node. In an entry, hash is the key's hash; in a
// child slot (kids != nil) it is the child's bitmap; in a header it is the
// node's generation.
type tslot[K trieKey, V any] struct {
	hash uint64
	key  K
	val  V
	kids tnode[K, V]
}

// len returns the number of keys.
func (t *trie[K, V]) len() int { return t.n }

// get returns the value of k.
func (t *trie[K, V]) get(k K) (v V, ok bool) {
	h := k.Hash()
	n, bm := t.root, t.bits
	for shift := uint(0); n != nil; shift += trieBits {
		if bm == 0 {
			for i := 1; i < len(n); i++ {
				if s := &n[i]; s.hash == h && s.key == k {
					return s.val, true
				}
			}
			return v, false
		}
		bit := uint32(1) << (h >> shift & trieMask)
		if bm&bit == 0 {
			return v, false
		}
		s := &n[slotOf(bm, bit)]
		if s.kids == nil {
			if s.hash == h && s.key == k {
				return s.val, true
			}
			return v, false
		}
		n, bm = s.kids, uint32(s.hash)
	}
	return v, false
}

// put maps k to v, copying in the writer's generation the nodes it
// changes that an older generation made.
func (t *trie[K, V]) put(w *cowState, k K, v V) {
	*t.ref(w, k) = v
}

// ref returns a pointer to k's value in a node of the writer's generation,
// adding k with the zero value when it is absent. The pointer is good
// until the next write to the trie.
func (t *trie[K, V]) ref(w *cowState, k K) *V {
	var v *V
	var added bool
	t.root, t.bits, v, added = t.root.ref(w, t.bits, 0, k.Hash(), k)
	if added {
		t.n++
	}
	return v
}

// del removes k, if present.
func (t *trie[K, V]) del(w *cowState, k K) {
	var removed bool
	t.root, t.bits, removed = t.root.del(w, t.bits, 0, k.Hash(), k)
	if removed {
		t.n--
	}
}

// each calls fn for every key and value, in no particular order, until fn
// returns false.
func (t *trie[K, V]) each(fn func(K, V) bool) { t.root.each(fn) }

// slotOf returns the slot index of bit in a bitmap node.
func slotOf(bm, bit uint32) int { return 1 + bits.OnesCount32(bm&(bit-1)) }

// newNode returns a flat node of the writer's generation holding the given
// entries, with room for newSpare more.
func newNode[K trieKey, V any](w *cowState, entries ...tslot[K, V]) tnode[K, V] {
	n := make(tnode[K, V], 1+len(entries), 1+len(entries)+newSpare)
	n[0].hash = w.gen
	copy(n[1:], entries)
	return n
}

// resize returns a copy of n in the writer's generation with len slots and
// room for size, its slots from i on moved up by gap. Copying a node of an
// older generation is copy-on-write and is counted; regrowing one of the
// current generation is not.
func (n tnode[K, V]) resize(w *cowState, i, gap, size int) tnode[K, V] {
	if n[0].hash != w.gen {
		w.copied += int64(len(n) - 1)
	}
	c := make(tnode[K, V], len(n)+gap, max(size, len(n)+gap))
	copy(c, n[:i])
	copy(c[i+gap:], n[i:])
	c[0].hash = w.gen
	return c
}

// own returns n itself when the writer's generation made it, or else a
// copy in the writer's generation.
func (n tnode[K, V]) own(w *cowState) tnode[K, V] {
	if n[0].hash == w.gen {
		return n
	}
	return n.resize(w, len(n), 0, len(n))
}

// insertAt returns n, owned, with an entry for k at slot i. A full node of
// the current generation doubles, up to full, the most slots its kind can
// hold, so that a bulk load into one generation stays linear; a copied
// node is sized exactly, so that a single write copies no spare room.
func (n tnode[K, V]) insertAt(w *cowState, i int, h uint64, k K, full int) tnode[K, V] {
	if n[0].hash == w.gen && len(n) < cap(n) {
		n = n[:len(n)+1]
		copy(n[i+1:], n[i:])
	} else if n[0].hash == w.gen {
		n = n.resize(w, i, 1, min(2*len(n), full))
	} else {
		n = n.resize(w, i, 1, len(n)+1)
	}
	n[i] = tslot[K, V]{hash: h, key: k}
	return n
}

// removeAt returns n, owned, without slot i.
func (n tnode[K, V]) removeAt(w *cowState, i int) tnode[K, V] {
	n = n.own(w)
	copy(n[i:], n[i+1:])
	n[len(n)-1] = tslot[K, V]{}
	return n[:len(n)-1]
}

// ref finds or adds the key k of hash h in the node n of bitmap bm at the
// given shift. It returns the node and bitmap that replace them, a
// pointer to the key's value in the new node and whether the key is new.
func (n tnode[K, V]) ref(w *cowState, bm uint32, shift uint, h uint64, k K) (tnode[K, V], uint32, *V, bool) {
	if n == nil {
		n = newNode(w, tslot[K, V]{hash: h, key: k})
		return n, 0, &n[1].val, true
	}
	if bm != 0 {
		return n.refBranch(w, bm, shift, h, k)
	}
	for i := 1; i < len(n); i++ {
		if n[i].hash == h && n[i].key == k {
			n = n.own(w)
			return n, 0, &n[i].val, false
		}
	}
	if len(n)-1 < leafWidth || shift >= hashBits {
		n = n.insertAt(w, len(n), h, k, 1+leafWidth)
		return n, 0, &n[len(n)-1].val, true
	}
	// Burst: redistribute the entries, and k, over a bitmap node.
	b := make(tnode[K, V], 1, min(2+len(n), 1+trieFan))
	b[0].hash = w.gen
	for _, e := range n[1:] {
		var v *V
		b, bm, v, _ = b.refBranch(w, bm, shift, e.hash, e.key)
		*v = e.val
	}
	b, bm, v, _ := b.refBranch(w, bm, shift, h, k)
	return b, bm, v, true
}

// refBranch is ref on a bitmap node (or on an empty header being filled
// as one).
func (n tnode[K, V]) refBranch(w *cowState, bm uint32, shift uint, h uint64, k K) (tnode[K, V], uint32, *V, bool) {
	bit := uint32(1) << (h >> shift & trieMask)
	i := slotOf(bm, bit)
	if bm&bit == 0 {
		n = n.insertAt(w, i, h, k, 1+trieFan)
		return n, bm | bit, &n[i].val, true
	}
	if n[i].kids == nil {
		n = n.own(w)
		if s := &n[i]; s.hash == h && s.key == k {
			return n, bm, &s.val, false
		}
		// Two keys share this slot: push both one level down.
		kids := newNode(w, n[i], tslot[K, V]{hash: h, key: k})
		n[i] = tslot[K, V]{kids: kids}
		return n, bm, &kids[2].val, true
	}
	s := &n[i]
	kids, kbm, v, added := s.kids.ref(w, uint32(s.hash), shift+trieBits, h, k)
	if !sameNode(kids, s.kids) || kbm != uint32(s.hash) {
		n = n.own(w)
		n[i] = tslot[K, V]{hash: uint64(kbm), kids: kids}
	}
	return n, bm, v, added
}

// del removes the key k of hash h from the node n of bitmap bm at the
// given shift. It returns the node and bitmap that replace them (a nil
// node when n is left empty) and whether the key was present; a missing
// key copies nothing.
func (n tnode[K, V]) del(w *cowState, bm uint32, shift uint, h uint64, k K) (tnode[K, V], uint32, bool) {
	if n == nil {
		return n, bm, false
	}
	if bm == 0 {
		for i := 1; i < len(n); i++ {
			if n[i].hash == h && n[i].key == k {
				if len(n) == 2 {
					return nil, 0, true
				}
				return n.removeAt(w, i), 0, true
			}
		}
		return n, 0, false
	}
	bit := uint32(1) << (h >> shift & trieMask)
	if bm&bit == 0 {
		return n, bm, false
	}
	i := slotOf(bm, bit)
	if s := &n[i]; s.kids == nil {
		if s.hash != h || s.key != k {
			return n, bm, false
		}
	} else {
		kids, kbm, removed := s.kids.del(w, uint32(s.hash), shift+trieBits, h, k)
		if !removed {
			return n, bm, false
		}
		if kids != nil {
			n = n.own(w)
			if e, ok := kids.single(kbm); ok {
				n[i] = e // a lone key moves back up into this slot
			} else {
				n[i] = tslot[K, V]{hash: uint64(kbm), kids: kids}
			}
			return n, bm, true
		}
	}
	if len(n) == 2 {
		return nil, 0, true
	}
	return n.removeAt(w, i), bm &^ bit, true
}

// single returns the node's entry when it holds exactly one key in a slot
// of its own.
func (n tnode[K, V]) single(bm uint32) (tslot[K, V], bool) {
	if len(n) == 2 && (bm == 0 || n[1].kids == nil) {
		return n[1], true
	}
	return tslot[K, V]{}, false
}

// sameNode reports whether a and b are the same slice: same array, same
// length.
func sameNode[K trieKey, V any](a, b tnode[K, V]) bool {
	return len(a) == len(b) && &a[0] == &b[0]
}

func (n tnode[K, V]) each(fn func(K, V) bool) bool {
	for i := 1; i < len(n); i++ {
		s := &n[i]
		if s.kids != nil {
			if !s.kids.each(fn) {
				return false
			}
		} else if !fn(s.key, s.val) {
			return false
		}
	}
	return true
}

// check verifies the trie's shape: every bitmap matches its node's slot
// count, every entry sits where its hash leads, no flat node above the
// last level outgrows leafWidth, no node is empty, no child node holds a
// lone key (it belongs in its parent's slot), and the key count is exact.
func (t *trie[K, V]) check() error {
	if t.root == nil {
		if t.n != 0 || t.bits != 0 {
			return fmt.Errorf("empty trie counts %d keys, bitmap %#x", t.n, t.bits)
		}
		return nil
	}
	keys, err := t.root.check(t.bits, 0, 0)
	if err != nil {
		return err
	}
	if keys != t.n {
		return fmt.Errorf("trie counts %d keys, holds %d", t.n, keys)
	}
	return nil
}

// check verifies the subtree n, of bitmap bm, whose keys' hashes agree
// with prefix below shift, and returns its key count.
func (n tnode[K, V]) check(bm uint32, shift uint, prefix uint64) (int, error) {
	low := uint64(1)<<shift - 1
	if shift >= hashBits {
		low = ^uint64(0)
	}
	if len(n) < 2 {
		return 0, fmt.Errorf("node at shift %d holds no slot", shift)
	}
	if bm == 0 {
		if len(n)-1 > leafWidth && shift < hashBits {
			return 0, fmt.Errorf("flat node at shift %d holds %d keys", shift, len(n)-1)
		}
		for _, s := range n[1:] {
			if s.kids != nil {
				return 0, fmt.Errorf("flat node at shift %d holds a child", shift)
			}
			if s.hash&low != prefix {
				return 0, fmt.Errorf("key %v with hash %#x misplaced at shift %d", s.key, s.hash, shift)
			}
		}
		return len(n) - 1, nil
	}
	if got := bits.OnesCount32(bm); got != len(n)-1 {
		return 0, fmt.Errorf("bitmap %#x at shift %d has %d bits for %d slots", bm, shift, got, len(n)-1)
	}
	keys, i := 0, 1
	for idx := uint64(0); idx < trieFan; idx++ {
		if bm&(1<<idx) == 0 {
			continue
		}
		s, p := n[i], prefix|idx<<shift
		i++
		if s.kids == nil {
			if s.hash&(low|trieMask<<shift) != p {
				return 0, fmt.Errorf("key %v with hash %#x misplaced at shift %d", s.key, s.hash, shift)
			}
			keys++
			continue
		}
		if _, lone := s.kids.single(uint32(s.hash)); lone {
			return 0, fmt.Errorf("child at shift %d holds a lone key", shift+trieBits)
		}
		c, err := s.kids.check(uint32(s.hash), shift+trieBits, p)
		if err != nil {
			return 0, err
		}
		keys += c
	}
	return keys, nil
}
