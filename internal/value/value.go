// Package value implements the SQL value system used throughout the rule
// engine: typed scalar values (integer, float, string, boolean) plus NULL,
// with SQL-style three-valued logic, comparison, arithmetic, and coercion.
//
// The paper (Widom & Finkelstein, SIGMOD 1990, Section 2) assumes a typical
// relational structure in which "a tuple assigns a single value (or null) to
// each column of the table"; this package supplies those values.
package value

import (
	"fmt"
	"hash/maphash"
	"math"
	"strconv"
	"strings"
)

// Kind identifies the runtime type of a Value.
type Kind int

// The kinds of SQL values.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INTEGER"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "VARCHAR"
	case KindBool:
		return "BOOLEAN"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Value is an immutable SQL scalar. The zero Value is NULL.
type Value struct {
	kind Kind
	i    int64
	f    float64
	s    string
	b    bool
}

// Null is the SQL NULL value.
var Null = Value{kind: KindNull}

// NewInt returns an integer value.
func NewInt(i int64) Value { return Value{kind: KindInt, i: i} }

// NewFloat returns a floating-point value.
func NewFloat(f float64) Value { return Value{kind: KindFloat, f: f} }

// NewString returns a string value.
func NewString(s string) Value { return Value{kind: KindString, s: s} }

// NewBool returns a boolean value.
func NewBool(b bool) Value { return Value{kind: KindBool, b: b} }

// Kind reports the value's kind.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is SQL NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Int returns the integer payload; it panics unless Kind is KindInt.
func (v Value) Int() int64 {
	if v.kind != KindInt {
		panic(fmt.Sprintf("value: Int called on %s", v.kind))
	}
	return v.i
}

// Float returns the float payload; it panics unless Kind is KindFloat.
func (v Value) Float() float64 {
	if v.kind != KindFloat {
		panic(fmt.Sprintf("value: Float called on %s", v.kind))
	}
	return v.f
}

// Str returns the string payload; it panics unless Kind is KindString.
func (v Value) Str() string {
	if v.kind != KindString {
		panic(fmt.Sprintf("value: Str called on %s", v.kind))
	}
	return v.s
}

// Bool returns the boolean payload; it panics unless Kind is KindBool.
func (v Value) Bool() bool {
	if v.kind != KindBool {
		panic(fmt.Sprintf("value: Bool called on %s", v.kind))
	}
	return v.b
}

// AsFloat converts a numeric value to float64. ok is false for non-numerics
// and NULL.
func (v Value) AsFloat() (f float64, ok bool) {
	switch v.kind {
	case KindInt:
		return float64(v.i), true
	case KindFloat:
		return v.f, true
	default:
		return 0, false
	}
}

// IsNumeric reports whether the value is an integer or float.
func (v Value) IsNumeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// String renders the value in SQL literal syntax (NULL, 42, 3.5, 'abc',
// TRUE). It is used by result printers and the AST pretty-printer.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindString:
		return "'" + strings.ReplaceAll(v.s, "'", "''") + "'"
	case KindBool:
		if v.b {
			return "TRUE"
		}
		return "FALSE"
	default:
		return fmt.Sprintf("Value(kind=%d)", int(v.kind))
	}
}

// Append appends v.String() to b. Numbers are formatted in place, so a
// caller that reuses b renders them without allocating.
func (v Value) Append(b []byte) []byte {
	switch v.kind {
	case KindInt:
		return strconv.AppendInt(b, v.i, 10)
	case KindFloat:
		return strconv.AppendFloat(b, v.f, 'g', -1, 64)
	default:
		return append(b, v.String()...)
	}
}

// Equal reports strict equality of two values, with NULL equal only to NULL.
// This is Go-level identity used by tests and set containers, not SQL
// equality (use Compare for SQL semantics, where NULL = NULL is unknown).
func (v Value) Equal(w Value) bool {
	if v.kind != w.kind {
		// Numeric cross-kind equality: 1 == 1.0.
		if v.IsNumeric() && w.IsNumeric() {
			a, _ := v.AsFloat()
			b, _ := w.AsFloat()
			return a == b
		}
		return false
	}
	switch v.kind {
	case KindNull:
		return true
	case KindInt:
		return v.i == w.i
	case KindFloat:
		return v.f == w.f
	case KindString:
		return v.s == w.s
	case KindBool:
		return v.b == w.b
	default:
		return false
	}
}

// Compare orders two non-NULL values of comparable kinds.
// It returns <0, 0, >0, like strings.Compare. ok is false when either value
// is NULL or the kinds are incomparable (e.g. string vs int); SQL treats
// such comparisons as unknown or errors, and the evaluator maps !ok to
// Unknown.
func Compare(a, b Value) (cmp int, ok bool) {
	if a.IsNull() || b.IsNull() {
		return 0, false
	}
	if a.IsNumeric() && b.IsNumeric() {
		if a.kind == KindInt && b.kind == KindInt {
			switch {
			case a.i < b.i:
				return -1, true
			case a.i > b.i:
				return 1, true
			default:
				return 0, true
			}
		}
		x, _ := a.AsFloat()
		y, _ := b.AsFloat()
		// NaN (reachable via overflow arithmetic like Inf - Inf) gets a
		// total order — equal to itself, after every other float — so that
		// x<y and x>y both failing cannot fall through to "equal" and the
		// heap-scan and index access paths agree on every comparison.
		if math.IsNaN(x) || math.IsNaN(y) {
			switch {
			case math.IsNaN(x) && math.IsNaN(y):
				return 0, true
			case math.IsNaN(x):
				return 1, true
			default:
				return -1, true
			}
		}
		switch {
		case x < y:
			return -1, true
		case x > y:
			return 1, true
		default:
			return 0, true
		}
	}
	if a.kind != b.kind {
		return 0, false
	}
	switch a.kind {
	case KindString:
		return strings.Compare(a.s, b.s), true
	case KindBool:
		x, y := 0, 0
		if a.b {
			x = 1
		}
		if b.b {
			y = 1
		}
		return x - y, true
	default:
		return 0, false
	}
}

// Tribool is SQL three-valued logic: True, False, Unknown.
type Tribool int

// The three truth values.
const (
	False Tribool = iota
	True
	Unknown
)

// String returns TRUE, FALSE or UNKNOWN.
func (t Tribool) String() string {
	switch t {
	case True:
		return "TRUE"
	case False:
		return "FALSE"
	default:
		return "UNKNOWN"
	}
}

// FromBool lifts a Go bool into a Tribool.
func FromBool(b bool) Tribool {
	if b {
		return True
	}
	return False
}

// And is three-valued conjunction.
func (t Tribool) And(u Tribool) Tribool {
	if t == False || u == False {
		return False
	}
	if t == True && u == True {
		return True
	}
	return Unknown
}

// Or is three-valued disjunction.
func (t Tribool) Or(u Tribool) Tribool {
	if t == True || u == True {
		return True
	}
	if t == False && u == False {
		return False
	}
	return Unknown
}

// Not is three-valued negation.
func (t Tribool) Not() Tribool {
	switch t {
	case True:
		return False
	case False:
		return True
	default:
		return Unknown
	}
}

// IsTrue reports whether the truth value is definitely True. SQL WHERE
// clauses keep a row only when the predicate is True (not Unknown).
func (t Tribool) IsTrue() bool { return t == True }

// ArithOp names a binary arithmetic operator.
type ArithOp int

// The arithmetic operators.
const (
	OpAdd ArithOp = iota
	OpSub
	OpMul
	OpDiv
	OpMod
)

func (op ArithOp) String() string {
	switch op {
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	case OpMod:
		return "%"
	default:
		return "?"
	}
}

// Arith applies op to two values with SQL numeric semantics: NULL
// propagates; int op int stays int (except division by zero, which errors);
// mixed int/float promotes to float. String concatenation is supported for
// OpAdd on two strings.
func Arith(op ArithOp, a, b Value) (Value, error) {
	if a.IsNull() || b.IsNull() {
		return Null, nil
	}
	if op == OpAdd && a.kind == KindString && b.kind == KindString {
		return NewString(a.s + b.s), nil
	}
	if !a.IsNumeric() || !b.IsNumeric() {
		return Null, fmt.Errorf("value: cannot apply %s to %s and %s", op, a.kind, b.kind)
	}
	if a.kind == KindInt && b.kind == KindInt {
		x, y := a.i, b.i
		switch op {
		case OpAdd:
			return NewInt(x + y), nil
		case OpSub:
			return NewInt(x - y), nil
		case OpMul:
			return NewInt(x * y), nil
		case OpDiv:
			if y == 0 {
				return Null, fmt.Errorf("value: division by zero")
			}
			return NewInt(x / y), nil
		case OpMod:
			if y == 0 {
				return Null, fmt.Errorf("value: division by zero")
			}
			return NewInt(x % y), nil
		}
	}
	x, _ := a.AsFloat()
	y, _ := b.AsFloat()
	switch op {
	case OpAdd:
		return NewFloat(x + y), nil
	case OpSub:
		return NewFloat(x - y), nil
	case OpMul:
		return NewFloat(x * y), nil
	case OpDiv:
		if y == 0 {
			return Null, fmt.Errorf("value: division by zero")
		}
		return NewFloat(x / y), nil
	case OpMod:
		if y == 0 {
			return Null, fmt.Errorf("value: division by zero")
		}
		return NewFloat(math.Mod(x, y)), nil
	}
	return Null, fmt.Errorf("value: unknown operator %v", op)
}

// Neg returns the arithmetic negation of a numeric value; NULL propagates.
func Neg(a Value) (Value, error) {
	switch a.kind {
	case KindNull:
		return Null, nil
	case KindInt:
		return NewInt(-a.i), nil
	case KindFloat:
		return NewFloat(-a.f), nil
	default:
		return Null, fmt.Errorf("value: cannot negate %s", a.kind)
	}
}

// Coerce converts v to the requested kind, if a lossless or standard SQL
// assignment conversion exists (int↔float, anything from NULL). It is used
// when storing values into typed columns.
func Coerce(v Value, to Kind) (Value, error) {
	if v.IsNull() || v.kind == to {
		return v, nil
	}
	switch to {
	case KindFloat:
		if v.kind == KindInt {
			return NewFloat(float64(v.i)), nil
		}
	case KindInt:
		if v.kind == KindFloat {
			if v.f == math.Trunc(v.f) && !math.IsInf(v.f, 0) {
				return NewInt(int64(v.f)), nil
			}
			return Null, fmt.Errorf("value: cannot store non-integral %s into INTEGER column", v)
		}
	}
	return Null, fmt.Errorf("value: cannot convert %s value %s to %s", v.kind, v, to)
}

// Key is a comparable hash key for a Value, shared by the executor's hash
// joins and the storage layer's secondary indexes. Keys are valid Go map
// keys and their construction allocates nothing for numeric values. Two
// keyspaces exist because Compare's equality is not transitive across
// kinds: KeyExact keeps distinct int64s distinct (int-int comparisons are
// exact), while KeyNumeric collapses every numeric to its float64 image
// (mixed int/float comparisons go through float64). Callers must pick the
// keyspace that matches the comparison they are replacing and never mix
// keys from different keyspaces in one table.
type Key struct {
	kind byte   // 'i' exact integer, 'f' float64 image, 's' string, 'b' bool
	num  int64  // integer value, float image bits, or 0/1 for booleans
	str  string // string payload
}

// keySeed seeds the string half of Key.Hash. It is drawn once per process,
// so a client cannot choose strings whose hashes collide.
var keySeed = maphash.MakeSeed()

// Hash returns a 64-bit hash of the key for hash tries. Integer, float and
// boolean keys hash by mix64 of their payload: deterministic from run to
// run, and two distinct keys of one kind never share a hash. Strings hash
// with hash/maphash under a per-process seed.
func (k Key) Hash() uint64 {
	if k.kind == 's' {
		return maphash.String(keySeed, k.str)
	}
	return mix64(uint64(k.num)) ^ uint64(k.kind)
}

// mix64 is a bijective 64-bit mixer (the splitmix64 finalizer): every
// input bit affects every output bit, and distinct inputs give distinct
// outputs.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// KeyExact returns v's key in the exact keyspace of its own kind: integers
// by value, floats by sign-normalized bit pattern, strings and booleans
// directly. Two values of the same kind have equal keys iff Compare reports
// them equal. Values of different numeric kinds may compare equal under
// Compare while their exact keys differ (an int64 above 2^53 and its
// float64 image); use KeyNumeric when one keyspace must span both. ok is
// false for NULL, which has no key (no equality comparison with NULL is
// ever True).
func KeyExact(v Value) (k Key, ok bool) {
	switch v.kind {
	case KindInt:
		return Key{kind: 'i', num: v.i}, true
	case KindFloat:
		return floatKey(v.f), true
	case KindString:
		return Key{kind: 's', str: v.s}, true
	case KindBool:
		if v.b {
			return Key{kind: 'b', num: 1}, true
		}
		return Key{kind: 'b'}, true
	default:
		return Key{}, false
	}
}

// KeyNumeric returns v's key in the float-image keyspace: every numeric
// value is keyed by its float64 image, so an int64 and a float64 share a
// key exactly when Compare reports them equal. Distinct int64s above 2^53
// share an image and hence a key; callers whose values are all integers
// should prefer KeyExact. Non-numeric kinds key as in KeyExact. ok is
// false for NULL.
func KeyNumeric(v Value) (k Key, ok bool) {
	switch v.kind {
	case KindInt:
		return floatKey(float64(v.i)), true
	case KindFloat:
		return floatKey(v.f), true
	default:
		return KeyExact(v)
	}
}

// floatKey keys a float64 by bit pattern, normalizing -0.0 to 0.0 and every
// NaN payload to the canonical NaN so values equal under Compare share a
// key.
func floatKey(f float64) Key {
	if f == 0 {
		f = 0
	}
	if math.IsNaN(f) {
		f = math.NaN()
	}
	return Key{kind: 'f', num: int64(math.Float64bits(f))}
}

// Like implements the SQL LIKE operator with % (any run) and _ (any single
// character) wildcards. NULL operands yield Unknown.
func Like(s, pattern Value) Tribool {
	if s.IsNull() || pattern.IsNull() {
		return Unknown
	}
	if s.kind != KindString || pattern.kind != KindString {
		return False
	}
	return FromBool(likeMatch(s.s, pattern.s))
}

func likeMatch(s, p string) bool {
	// Iterative matcher with backtracking over the last %.
	var si, pi int
	starP, starS := -1, 0
	for si < len(s) {
		switch {
		case pi < len(p) && (p[pi] == '_' || p[pi] == s[si]):
			si++
			pi++
		case pi < len(p) && p[pi] == '%':
			starP = pi
			starS = si
			pi++
		case starP >= 0:
			starS++
			si = starS
			pi = starP + 1
		default:
			return false
		}
	}
	for pi < len(p) && p[pi] == '%' {
		pi++
	}
	return pi == len(p)
}
