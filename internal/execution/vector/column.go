package vector

import (
	"fmt"
	"math"
	"strconv"

	"prestolite/internal/block"
	"prestolite/internal/types"
)

// Column is an appendable typed column store: the group table stores its
// key columns in them and the vector join compacts its whole build side
// into them, so probing and emission touch flat slices instead of chasing
// per-row page references. Floats are stored as their bit patterns
// (math.Float64bits) so equality and hashing agree with the encoded group
// keys of AppendKey (NaN == NaN, +0.0 != -0.0). Boxed key columns keep each
// value next to its AppendKey encoding, which is their equality; boxed
// payload columns, never compared, keep the value alone.
type Column struct {
	typ      *types.Type
	kind     Kind
	keyed    bool    // KindBoxed: compared by equalRow, so enc is kept
	i64      []int64 // KindInt64, KindFloat64 (bits), KindBool (0/1)
	str      []string
	box      []any    // KindBoxed
	enc      []string // KindBoxed key columns: AppendKey encoding per row
	buf      []byte   // KindBoxed key columns: scratch encoding
	nulls    []bool
	hasNulls bool
	bytes    int64 // retained-byte estimate, string payloads included
}

// NewColumn builds an empty store for type t.
func NewColumn(t *types.Type) *Column { return &Column{typ: t, kind: KindOf(t)} }

// newKeyColumn builds an empty store for a key column of type t: one that
// group and join tables compare rows against.
func newKeyColumn(t *types.Type) *Column {
	c := NewColumn(t)
	c.keyed = true
	return c
}

// Kind is the column's storage kind.
func (c *Column) Kind() Kind { return c.kind }

// Len is the number of stored rows.
func (c *Column) Len() int { return len(c.nulls) }

// Bytes is the retained-byte estimate (used for memory accounting).
func (c *Column) Bytes() int64 { return c.bytes }

// appendNull stores a null row.
func (c *Column) appendNull() {
	switch c.kind {
	case KindString:
		c.str = append(c.str, "")
	case KindBoxed:
		c.box = append(c.box, nil)
		if c.keyed {
			c.enc = append(c.enc, "")
		}
	default:
		c.i64 = append(c.i64, 0)
	}
	c.nulls = append(c.nulls, true)
	c.hasNulls = true
	c.bytes += 9
}

// AppendRow stores row r of view v.
func (c *Column) AppendRow(v *View, r int) {
	i := v.at(r)
	if i < 0 {
		c.appendNull()
		return
	}
	switch c.kind {
	case KindInt64:
		c.i64 = append(c.i64, v.I64[i])
	case KindFloat64:
		c.i64 = append(c.i64, int64(math.Float64bits(v.F64[i])))
	case KindBool:
		var x int64
		if v.B[i] {
			x = 1
		}
		c.i64 = append(c.i64, x)
	case KindString:
		s := v.S[i]
		c.str = append(c.str, s)
		c.bytes += int64(len(s))
	default:
		c.box = append(c.box, v.A[i])
		c.bytes += boxedBytes(v.A[i])
		if c.keyed {
			c.buf = AppendKey(c.buf[:0], v.A[i])
			c.enc = append(c.enc, string(c.buf))
			c.bytes += int64(len(c.buf)) + 16
		}
	}
	c.nulls = append(c.nulls, false)
	c.bytes += 9
}

// Append stores all n rows of view v.
func (c *Column) Append(v *View, n int) {
	// The flat typed shapes bulk-append; everything else goes row-wise.
	if v.flat() && c.kind != KindBoxed {
		switch c.kind {
		case KindInt64:
			c.i64 = append(c.i64, v.I64[:n]...)
		case KindFloat64:
			for _, x := range v.F64[:n] {
				c.i64 = append(c.i64, int64(math.Float64bits(x)))
			}
		case KindBool:
			for _, x := range v.B[:n] {
				var b int64
				if x {
					b = 1
				}
				c.i64 = append(c.i64, b)
			}
		default:
			for _, s := range v.S[:n] {
				c.str = append(c.str, s)
				c.bytes += int64(len(s))
			}
		}
		c.nulls = append(c.nulls, make([]bool, n)...)
		c.bytes += int64(9 * n)
		return
	}
	for r := 0; r < n; r++ {
		c.AppendRow(v, r)
	}
}

// equalRow reports whether stored row i equals row r of view v, with nulls
// comparing equal to nulls (group-key semantics; join probes never reach
// here with null keys). Boxed columns must be key columns.
func (c *Column) equalRow(i int, v *View, r int) bool {
	j := v.at(r)
	if c.nulls[i] {
		return j < 0
	}
	if j < 0 {
		return false
	}
	switch c.kind {
	case KindInt64:
		return c.i64[i] == v.I64[j]
	case KindFloat64:
		return uint64(c.i64[i]) == math.Float64bits(v.F64[j])
	case KindBool:
		return (c.i64[i] != 0) == v.B[j]
	case KindString:
		return c.str[i] == v.S[j]
	default:
		c.buf = AppendKey(c.buf[:0], v.A[j])
		return c.enc[i] == string(c.buf)
	}
}

// boxedBytes estimates the retained size of a boxed value: its interface
// header plus, for strings and compound values, the payload.
func boxedBytes(v any) int64 {
	switch t := v.(type) {
	case string:
		return 32 + int64(len(t))
	case []any:
		n := int64(40)
		for _, e := range t {
			n += boxedBytes(e)
		}
		return n
	case [][2]any:
		n := int64(40)
		for _, kv := range t {
			n += boxedBytes(kv[0]) + boxedBytes(kv[1])
		}
		return n
	default:
		return 16
	}
}

// ValueAt boxes stored row i (cold paths: spill encoding, debugging).
func (c *Column) ValueAt(i int) any {
	if c.nulls[i] {
		return nil
	}
	switch c.kind {
	case KindInt64:
		return c.i64[i]
	case KindFloat64:
		return math.Float64frombits(uint64(c.i64[i]))
	case KindBool:
		return c.i64[i] != 0
	case KindString:
		return c.str[i]
	default:
		return c.box[i]
	}
}

// nullsFor returns the null mask for [from, to), or nil when clean.
func (c *Column) nullsFor(from, to int) []bool {
	if !c.hasNulls {
		return nil
	}
	return c.nulls[from:to]
}

// Block emits rows [from, to) as a block sharing storage where the
// representation allows it.
func (c *Column) Block(from, to int) block.Block {
	switch c.kind {
	case KindInt64:
		return &block.Int64Block{Values: c.i64[from:to], Nulls: c.nullsFor(from, to)}
	case KindFloat64:
		vals := make([]float64, to-from)
		for i := range vals {
			vals[i] = math.Float64frombits(uint64(c.i64[from+i]))
		}
		return &block.Float64Block{Values: vals, Nulls: c.nullsFor(from, to)}
	case KindBool:
		vals := make([]bool, to-from)
		for i := range vals {
			vals[i] = c.i64[from+i] != 0
		}
		return &block.BoolBlock{Values: vals, Nulls: c.nullsFor(from, to)}
	case KindString:
		return &block.VarcharBlock{Values: c.str[from:to], Nulls: c.nullsFor(from, to)}
	default:
		return block.FromValues(c.typ, c.box[from:to]...)
	}
}

// Gather emits the given stored rows, in order, as a block (the join output
// path: build-side rows matched by a probe batch).
func (c *Column) Gather(rows []int32) block.Block {
	var nulls []bool
	if c.hasNulls {
		nulls = make([]bool, len(rows))
		for out, r := range rows {
			nulls[out] = c.nulls[r]
		}
	}
	switch c.kind {
	case KindInt64:
		vals := make([]int64, len(rows))
		for out, r := range rows {
			vals[out] = c.i64[r]
		}
		return &block.Int64Block{Values: vals, Nulls: nulls}
	case KindFloat64:
		vals := make([]float64, len(rows))
		for out, r := range rows {
			vals[out] = math.Float64frombits(uint64(c.i64[r]))
		}
		return &block.Float64Block{Values: vals, Nulls: nulls}
	case KindBool:
		vals := make([]bool, len(rows))
		for out, r := range rows {
			vals[out] = c.i64[r] != 0
		}
		return &block.BoolBlock{Values: vals, Nulls: nulls}
	case KindString:
		vals := make([]string, len(rows))
		for out, r := range rows {
			vals[out] = c.str[r]
		}
		return &block.VarcharBlock{Values: vals, Nulls: nulls}
	default:
		b := block.NewBuilder(c.typ, len(rows))
		for _, r := range rows {
			b.Append(c.box[r])
		}
		return b.Build()
	}
}

// NullBlock builds an all-null block of n rows for type t (LEFT-join null
// extension).
func NullBlock(t *types.Type, n int) block.Block {
	k := KindOf(t)
	if k == KindBoxed {
		return block.FromValues(t, make([]any, n)...)
	}
	nulls := make([]bool, n)
	for i := range nulls {
		nulls[i] = true
	}
	switch k {
	case KindFloat64:
		return &block.Float64Block{Values: make([]float64, n), Nulls: nulls}
	case KindBool:
		return &block.BoolBlock{Values: make([]bool, n), Nulls: nulls}
	case KindString:
		return &block.VarcharBlock{Values: make([]string, n), Nulls: nulls}
	default:
		return &block.Int64Block{Values: make([]int64, n), Nulls: nulls}
	}
}

// AppendKey appends v's group-key encoding onto dst: equal encodings are
// equal keys. It sits on the per-row path of boxed keys and DISTINCT
// seen-sets, so each scalar gets a type-tag byte plus a strconv append
// instead of reflective formatting; strings are length-prefixed and every
// value ends in a separator byte, so concatenated keys cannot collide.
func AppendKey(dst []byte, v any) []byte {
	switch t := v.(type) {
	case nil:
		dst = append(dst, 'n')
	case bool:
		if t {
			dst = append(dst, 'b', 1)
		} else {
			dst = append(dst, 'b', 0)
		}
	case int64:
		dst = append(dst, 'i')
		dst = strconv.AppendInt(dst, t, 36)
	case float64:
		dst = append(dst, 'f')
		dst = strconv.AppendUint(dst, math.Float64bits(t), 36)
	case string:
		dst = append(dst, 's')
		dst = strconv.AppendInt(dst, int64(len(t)), 36)
		dst = append(dst, ':')
		dst = append(dst, t...)
	default:
		// Compound values (arrays, maps, rows) fall back to reflective
		// formatting, the same rendering Hasher hashes them by.
		dst = append(dst, 'x')
		dst = fmt.Appendf(dst, "%T\x00%v", v, v)
	}
	return append(dst, 0x01)
}
