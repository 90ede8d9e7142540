package storage

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"testing"

	"sopr/internal/value"
)

// fewHashes is a test key whose hash takes only seven values, so most keys
// collide in full and the trie must chain them down to the last level.
type fewHashes int

func (k fewHashes) Hash() uint64 { return uint64(k % 7) }

// highHashes is a test key whose hash keeps its bits above the 40th, so
// distinct keys share long hash prefixes and the trie grows deep paths
// without full collisions.
type highHashes int

func (k highHashes) Hash() uint64 { return uint64(k) << 40 }

// TestTrieProperty runs random puts, deletes and lookups across many
// generations against a plain-map model, for keys that hash well, keys
// that collide in full and keys that share long hash prefixes. Every trie
// frozen at a publish must still hold its contents after all later
// writes, and shrinking a trie to empty must leave no node.
func TestTrieProperty(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("handles/", seed), func(t *testing.T) {
			trieProperty(t, rand.New(rand.NewSource(seed)), 3000, func(i int) Handle { return Handle(i) })
		})
		t.Run(fmt.Sprint("collisions/", seed), func(t *testing.T) {
			trieProperty(t, rand.New(rand.NewSource(seed)), 200, func(i int) fewHashes { return fewHashes(i) })
		})
		t.Run(fmt.Sprint("prefixes/", seed), func(t *testing.T) {
			trieProperty(t, rand.New(rand.NewSource(seed)), 500, func(i int) highHashes { return highHashes(i) })
		})
		t.Run(fmt.Sprint("values/", seed), func(t *testing.T) {
			trieProperty(t, rand.New(rand.NewSource(seed)), 1000, func(i int) value.Key {
				k, _ := value.KeyExact(keyValue(i))
				return k
			})
		})
	}
}

// keyValue maps i onto values of every kind: ints, floats, strings and
// bools.
func keyValue(i int) value.Value {
	switch i % 4 {
	case 0:
		return value.NewInt(int64(i))
	case 1:
		return value.NewFloat(float64(i) / 4)
	case 2:
		return value.NewString(fmt.Sprint("k", i))
	default:
		return value.NewBool(i%8 == 3)
	}
}

func trieProperty[K trieKey](t *testing.T, rng *rand.Rand, keySpace int, key func(int) K) {
	t.Helper()
	w := &cowState{gen: 1}
	var tr trie[K, int]
	model := map[K]int{}
	type frozen struct {
		tr    trie[K, int]
		model map[K]int
	}
	var frozens []frozen
	verify := func(tr *trie[K, int], model map[K]int, what string) {
		t.Helper()
		if err := tr.check(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if tr.len() != len(model) {
			t.Fatalf("%s: trie holds %d keys, model %d", what, tr.len(), len(model))
		}
		for k, want := range model {
			if got, ok := tr.get(k); !ok || got != want {
				t.Fatalf("%s: key %v = %d, %v; model %d", what, k, got, ok, want)
			}
		}
		seen := 0
		tr.each(func(k K, v int) bool {
			if want, ok := model[k]; !ok || want != v {
				t.Fatalf("%s: trie holds %v = %d, model %d, %v", what, k, v, want, ok)
			}
			seen++
			return true
		})
		if seen != len(model) {
			t.Fatalf("%s: each visited %d keys, model holds %d", what, seen, len(model))
		}
	}

	for step := 0; step < 6000; step++ {
		k := key(rng.Intn(keySpace))
		switch op := rng.Intn(20); {
		case op < 10:
			v := rng.Int()
			tr.put(w, k, v)
			model[k] = v
		case op < 17:
			tr.del(w, k)
			delete(model, k)
		case op < 19:
			got, ok := tr.get(k)
			if want, in := model[k]; ok != in || got != want {
				t.Fatalf("step %d: get %v = %d, %v; model %d, %v", step, k, got, ok, want, in)
			}
		default: // publish: freeze the trie as it stands
			frozens = append(frozens, frozen{tr, maps.Clone(model)})
			w.gen++
		}
		if step%500 == 0 {
			verify(&tr, model, fmt.Sprintf("step %d", step))
		}
	}
	verify(&tr, model, "end")
	for i := range frozens {
		verify(&frozens[i].tr, frozens[i].model, fmt.Sprintf("frozen trie %d", i))
	}

	// Shrink to empty, half in a new generation and half in place.
	w.gen++
	for k := range model {
		tr.del(w, k)
		delete(model, k)
		if len(model)%97 == 0 {
			verify(&tr, model, "shrinking")
		}
	}
	if tr.root != nil || tr.bits != 0 || tr.len() != 0 {
		t.Fatalf("emptied trie keeps root %v, bitmap %#x, %d keys", tr.root, tr.bits, tr.len())
	}
	for i := range frozens {
		verify(&frozens[i].tr, frozens[i].model, fmt.Sprintf("frozen trie %d after shrinking", i))
	}
}

// TestTrieValueKeys checks that keys of every kind land on the entries
// value.KeyExact equality says they should: 0 and -0 are one key, every
// NaN is one key, integers astride 2^53 stay apart, and strings and bools
// are keys of their own.
func TestTrieValueKeys(t *testing.T) {
	w := &cowState{gen: 1}
	var tr trie[value.Key, int]
	add := func(v value.Value) {
		k, ok := value.KeyExact(v)
		if !ok {
			t.Fatalf("%v has no key", v)
		}
		*tr.ref(w, k)++
	}
	count := func(v value.Value) int {
		k, _ := value.KeyExact(v)
		n, _ := tr.get(k)
		return n
	}
	const p53 = 1 << 53
	vals := []value.Value{
		value.NewFloat(0), value.NewFloat(math.Copysign(0, -1)),
		value.NewFloat(math.NaN()), value.NewFloat(math.Float64frombits(0x7ff8000000000001)),
		value.NewInt(p53 - 1), value.NewInt(p53), value.NewInt(p53 + 1),
		value.NewFloat(p53), value.NewFloat(p53 + 1), // one float64: 2^53+1 rounds to 2^53
		value.NewInt(0), value.NewString(""), value.NewString("0"), value.NewString("a"),
		value.NewBool(false), value.NewBool(true), value.NewBool(true),
	}
	for _, v := range vals {
		add(v)
	}
	for _, c := range []struct {
		v    value.Value
		want int
	}{
		{value.NewFloat(0), 2}, {value.NewFloat(math.NaN()), 2},
		{value.NewInt(p53 - 1), 1}, {value.NewInt(p53), 1}, {value.NewInt(p53 + 1), 1},
		{value.NewFloat(p53), 2}, {value.NewInt(0), 1},
		{value.NewString(""), 1}, {value.NewString("0"), 1}, {value.NewString("a"), 1},
		{value.NewBool(false), 1}, {value.NewBool(true), 2},
	} {
		if got := count(c.v); got != c.want {
			t.Errorf("%v (%s) counted %d times, want %d", c.v, c.v.Kind(), got, c.want)
		}
	}
	if want := 12; tr.len() != want {
		t.Errorf("trie holds %d keys, want %d", tr.len(), want)
	}
	if err := tr.check(); err != nil {
		t.Fatal(err)
	}
	// Numeric keys hash by a bijective mixer: deterministic, and no two of
	// them share a hash.
	seen := map[uint64]int64{}
	for i := int64(-5000); i < 5000; i++ {
		k, _ := value.KeyExact(value.NewInt(i))
		if j, dup := seen[k.Hash()]; dup {
			t.Fatalf("ints %d and %d share hash %#x", i, j, k.Hash())
		}
		seen[k.Hash()] = i
		if again, _ := value.KeyExact(value.NewInt(i)); again.Hash() != k.Hash() {
			t.Fatalf("int %d hashes two ways", i)
		}
	}
}

// TestTrieWriteCopiesOnePath pins copy-on-write: after a publish, a write
// copies the slots of the nodes on one root-to-leaf path, and a second
// write to the same key in the same generation copies nothing.
func TestTrieWriteCopiesOnePath(t *testing.T) {
	w := &cowState{gen: 1}
	var tr trie[Handle, int]
	for h := Handle(1); h <= 100000; h++ {
		tr.put(w, h, int(h))
	}
	w.gen++
	before := w.copied
	tr.put(w, 777, -1)
	path := w.copied - before
	t.Logf("one write to a trie of 10^5 keys copied %d slots", path)
	if limit := int64(3*trieFan + leafWidth); path > limit {
		t.Errorf("one write copied %d slots, more than one path (%d)", path, limit)
	}
	before = w.copied
	tr.put(w, 777, -2)
	if again := w.copied - before; again != 0 {
		t.Errorf("a second write to the same key copied %d slots, want 0", again)
	}
}
