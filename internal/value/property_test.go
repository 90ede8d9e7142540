package value

import (
	"math"
	"math/rand"
	"testing"
)

// randValue draws from a distribution heavy in adversarial cases: extreme
// integers, negative zero, NaN, infinities, numbers astride the 2^53
// float-precision cliff, empty and quote-bearing strings.
func randValue(rng *rand.Rand) Value {
	switch rng.Intn(10) {
	case 0:
		return Null
	case 1, 2:
		ints := []int64{0, 1, -1, 5, -5, 1 << 40, math.MaxInt64, math.MinInt64,
			1 << 53, 1<<53 + 1, 1<<53 + 2, -(1 << 53), -(1<<53 + 1)}
		return NewInt(ints[rng.Intn(len(ints))])
	case 3, 4:
		floats := []float64{0, math.Copysign(0, -1), 1, -1, 0.25, -0.25, 2.5,
			math.NaN(), math.Inf(1), math.Inf(-1), 1 << 53, 1<<53 + 2, math.MaxFloat64, math.SmallestNonzeroFloat64}
		return NewFloat(floats[rng.Intn(len(floats))])
	case 5, 6:
		strs := []string{"", "a", "b", "ab", "x'y", "aa", "A", " ", "\x00"}
		return NewString(strs[rng.Intn(len(strs))])
	case 7:
		return NewBool(rng.Intn(2) == 0)
	default:
		return NewInt(int64(rng.Intn(41) - 20))
	}
}

// TestCompareTotalOrderProperty checks that Compare is a total order on
// every comparable subset: antisymmetric, transitive, reflexive, and
// defined exactly on non-NULL same-kind or numeric-numeric pairs.
func TestCompareTotalOrderProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20000; i++ {
		a, b, c := randValue(rng), randValue(rng), randValue(rng)

		cab, okAB := Compare(a, b)
		comparable := !a.IsNull() && !b.IsNull() &&
			(a.Kind() == b.Kind() || (a.IsNumeric() && b.IsNumeric()))
		if okAB != comparable {
			t.Fatalf("Compare(%s,%s) ok=%v, want %v", a, b, okAB, comparable)
		}
		if !okAB {
			continue
		}
		// Reflexivity.
		if cr, ok := Compare(a, a); !ok || cr != 0 {
			t.Fatalf("Compare(%s,%s) = %d,%v; want 0,true", a, a, cr, ok)
		}
		// Antisymmetry.
		cba, ok := Compare(b, a)
		if !ok || sign(cba) != -sign(cab) {
			t.Fatalf("Compare(%s,%s)=%d but Compare(%s,%s)=%d", a, b, cab, b, a, cba)
		}
		// Transitivity over comparable triples.
		cbc, okBC := Compare(b, c)
		cac, okAC := Compare(a, c)
		if okBC && okAC && cab <= 0 && cbc <= 0 && cac > 0 {
			t.Fatalf("order not transitive: %s <= %s <= %s but Compare(%s,%s)=%d",
				a, b, c, a, c, cac)
		}
	}
}

// TestCompareEqualAgreementProperty: for same-kind pairs, Compare==0 and
// Equal must agree (the evaluator uses Compare, the effect machinery uses
// Equal; disagreement would make "did this update change the row" and
// "does this row match" drift apart). Mixed int/float pairs agree on the
// float image by design.
func TestCompareEqualAgreementProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 20000; i++ {
		a, b := randValue(rng), randValue(rng)
		cmp, ok := Compare(a, b)
		if !ok {
			continue
		}
		if a.Kind() == b.Kind() && a.Kind() == KindFloat &&
			(math.IsNaN(a.Float()) || math.IsNaN(b.Float())) {
			// Compare gives NaN a total-order position; Equal follows
			// IEEE (NaN != NaN). Documented divergence, skip.
			continue
		}
		if (cmp == 0) != a.Equal(b) {
			t.Fatalf("Compare(%s,%s)=%d but Equal=%v", a, b, cmp, a.Equal(b))
		}
	}
}

// TestKeyExactInjectivityProperty: for same-kind pairs, exact keys are
// equal iff Compare reports the values equal — the contract that lets a
// hash index stand in for a scan-and-compare.
func TestKeyExactInjectivityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 20000; i++ {
		a, b := randValue(rng), randValue(rng)
		ka, okA := KeyExact(a)
		kb, okB := KeyExact(b)
		if okA != !a.IsNull() || okB != !b.IsNull() {
			t.Fatalf("KeyExact ok mismatch: %s→%v, %s→%v", a, okA, b, okB)
		}
		if !okA || !okB || a.Kind() != b.Kind() {
			continue
		}
		cmp, ok := Compare(a, b)
		if !ok {
			continue
		}
		if (ka == kb) != (cmp == 0) {
			t.Fatalf("KeyExact(%s)==KeyExact(%s) is %v but Compare=%d", a, b, ka == kb, cmp)
		}
	}
}

// TestKeyNumericCrossKindProperty: in the numeric keyspace an int and a
// float share a key exactly when Compare reports them equal, so an index
// keyed numerically answers cross-kind equality probes correctly (within
// float precision, which is why KeyNumeric documents the 2^53 caveat for
// int-int pairs and callers choose keyspaces per table).
func TestKeyNumericCrossKindProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 20000; i++ {
		a, b := randValue(rng), randValue(rng)
		if !a.IsNumeric() || !b.IsNumeric() || a.Kind() == b.Kind() {
			continue
		}
		ka, _ := KeyNumeric(a)
		kb, _ := KeyNumeric(b)
		cmp, ok := Compare(a, b)
		if !ok {
			t.Fatalf("numeric pair %s,%s not comparable", a, b)
		}
		if (ka == kb) != (cmp == 0) {
			t.Fatalf("KeyNumeric(%s)==KeyNumeric(%s) is %v but Compare=%d", a, b, ka == kb, cmp)
		}
	}
}

// TestKeyFloatNormalization pins the two float keyspace foldings: -0.0
// keys with +0.0 and every NaN payload keys with the canonical NaN, in
// both keyspaces, matching Compare's treatment.
func TestKeyFloatNormalization(t *testing.T) {
	negZero, posZero := NewFloat(math.Copysign(0, -1)), NewFloat(0)
	k1, _ := KeyExact(negZero)
	k2, _ := KeyExact(posZero)
	if k1 != k2 {
		t.Error("-0.0 and 0.0 have different exact keys")
	}
	payloadNaN := NewFloat(math.Float64frombits(0x7ff8000000000001))
	k3, _ := KeyExact(payloadNaN)
	k4, _ := KeyExact(NewFloat(math.NaN()))
	if k3 != k4 {
		t.Error("NaN payloads not canonicalized in exact keyspace")
	}
	k5, _ := KeyNumeric(NewInt(3))
	k6, _ := KeyNumeric(NewFloat(3.0))
	if k5 != k6 {
		t.Error("KeyNumeric(3) != KeyNumeric(3.0)")
	}
}

// TestAppendMatchesStringProperty checks that Append renders exactly the
// bytes of String, onto an empty and onto a non-empty prefix.
func TestAppendMatchesStringProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 5000; i++ {
		v := randValue(rng)
		if got := string(v.Append(nil)); got != v.String() {
			t.Fatalf("Append(nil) of %s = %q", v, got)
		}
		if got := string(v.Append([]byte("k\x00"))); got != "k\x00"+v.String() {
			t.Fatalf("Append(prefix) of %s = %q", v, got)
		}
	}
}

// TestEqualImpliesKeyNumericProperty checks that values Equal to each
// other share a KeyNumeric key, which lets a set of distinct values run
// Equal only within one key's bucket.
func TestEqualImpliesKeyNumericProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 20000; i++ {
		a, b := randValue(rng), randValue(rng)
		if !a.Equal(b) {
			continue
		}
		ka, _ := KeyNumeric(a)
		kb, _ := KeyNumeric(b)
		if ka != kb {
			t.Fatalf("Equal(%s, %s) but KeyNumeric keys differ: %v vs %v", a, b, ka, kb)
		}
	}
}
