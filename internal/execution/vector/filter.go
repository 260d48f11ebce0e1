package vector

import "cmp"

// CmpOp is a comparison operator for the selection kernels. The values
// mirror the expression registry's comparison function names.
type CmpOp uint8

const (
	CmpEq CmpOp = iota
	CmpNe
	CmpLt
	CmpLe
	CmpGt
	CmpGe
)

// Name returns the registry function name ("eq", "lt", ...).
func (op CmpOp) Name() string {
	switch op {
	case CmpEq:
		return "eq"
	case CmpNe:
		return "neq"
	case CmpLt:
		return "lt"
	case CmpLe:
		return "lte"
	case CmpGt:
		return "gt"
	default:
		return "gte"
	}
}

// CmpOpFor maps a registry function name onto a CmpOp.
func CmpOpFor(name string) (CmpOp, bool) {
	switch name {
	case "eq":
		return CmpEq, true
	case "neq":
		return CmpNe, true
	case "lt":
		return CmpLt, true
	case "lte":
		return CmpLe, true
	case "gt":
		return CmpGt, true
	case "gte":
		return CmpGe, true
	}
	return 0, false
}

// cmpOrd applies op to an ordered pair. For floats this is IEEE ordering
// (every comparison with NaN is false), matching the expression registry's
// boxed comparison functions.
func cmpOrd[T cmp.Ordered](op CmpOp, a, b T) bool {
	switch op {
	case CmpEq:
		return a == b
	case CmpNe:
		return a != b
	case CmpLt:
		return a < b
	case CmpLe:
		return a <= b
	case CmpGt:
		return a > b
	default:
		return a >= b
	}
}

// selectFlat is the null-free tight loop: op dispatched once, then a branch
// per row.
func selectFlat[T cmp.Ordered](vals []T, n int, op CmpOp, c T, sel []int) []int {
	v := vals[:n]
	switch op {
	case CmpEq:
		for r, x := range v {
			if x == c {
				sel = append(sel, r)
			}
		}
	case CmpNe:
		for r, x := range v {
			if x != c {
				sel = append(sel, r)
			}
		}
	case CmpLt:
		for r, x := range v {
			if x < c {
				sel = append(sel, r)
			}
		}
	case CmpLe:
		for r, x := range v {
			if x <= c {
				sel = append(sel, r)
			}
		}
	case CmpGt:
		for r, x := range v {
			if x > c {
				sel = append(sel, r)
			}
		}
	default:
		for r, x := range v {
			if x >= c {
				sel = append(sel, r)
			}
		}
	}
	return sel
}

// Filter holds reusable scratch for the selection kernels (the per-distinct
// verdict vector of the dictionary path). The zero value is ready to use.
type Filter struct {
	keep []bool
}

// SelectConst appends to sel the positions in [0, n) of view v whose value
// compares op-true against the boxed constant c. Null rows never pass, and a
// nil constant selects nothing (SQL comparison semantics). ok is false when
// the constant's type does not match the view's kind — callers then fall
// back to the boxed path.
//
// Encodings cost what they contain: a run-length view is one comparison for
// the whole batch, a dictionary view is one comparison per distinct value
// plus an id-vector scan.
func (f *Filter) SelectConst(v *View, n int, op CmpOp, c any, sel []int) ([]int, bool) {
	if c == nil {
		return sel, true
	}
	switch v.Kind {
	case KindInt64:
		cv, ok := c.(int64)
		if !ok {
			return sel, false
		}
		return selectTyped(f, v, v.I64, n, op, cv, sel), true
	case KindFloat64:
		cv, ok := c.(float64)
		if !ok {
			return sel, false
		}
		return selectTyped(f, v, v.F64, n, op, cv, sel), true
	case KindString:
		cv, ok := c.(string)
		if !ok {
			return sel, false
		}
		return selectTyped(f, v, v.S, n, op, cv, sel), true
	default: // KindBool: order as false < true, like expr.CompareValues
		cv, ok := c.(bool)
		if !ok {
			return sel, false
		}
		return f.selectBoolCmp(v, n, op, cv, sel), true
	}
}

// selectTyped runs the ordered-kind selection over one view shape (a free
// function because Go methods cannot carry type parameters).
func selectTyped[T cmp.Ordered](f *Filter, v *View, vals []T, n int, op CmpOp, c T, sel []int) []int {
	switch {
	case v.Const:
		if i := v.at(0); i >= 0 && cmpOrd(op, vals[i], c) {
			for r := 0; r < n; r++ {
				sel = append(sel, r)
			}
		}
	case v.Ids != nil:
		m := v.dictLen()
		f.keep = grown(f.keep[:0], m)
		for i := 0; i < m; i++ {
			f.keep[i] = (v.Nulls == nil || !v.Nulls[i]) && cmpOrd(op, vals[i], c)
		}
		for r, id := range v.Ids[:n] {
			if id >= 0 && f.keep[id] {
				sel = append(sel, r)
			}
		}
	case v.Nulls == nil:
		sel = selectFlat(vals, n, op, c, sel)
	default:
		for r := 0; r < n; r++ {
			if i := v.at(r); i >= 0 && cmpOrd(op, vals[i], c) {
				sel = append(sel, r)
			}
		}
	}
	return sel
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// selectBoolCmp compares a boolean view against a boolean constant using
// false < true ordering.
func (f *Filter) selectBoolCmp(v *View, n int, op CmpOp, c bool, sel []int) []int {
	cv := b2i(c)
	switch {
	case v.Const:
		if i := v.at(0); i >= 0 && cmpOrd(op, b2i(v.B[i]), cv) {
			for r := 0; r < n; r++ {
				sel = append(sel, r)
			}
		}
	case v.Ids != nil:
		for r := 0; r < n; r++ {
			if i := v.at(r); i >= 0 && cmpOrd(op, b2i(v.B[i]), cv) {
				sel = append(sel, r)
			}
		}
	case v.Nulls == nil:
		for r, x := range v.B[:n] {
			if cmpOrd(op, b2i(x), cv) {
				sel = append(sel, r)
			}
		}
	default:
		for r := 0; r < n; r++ {
			if i := v.at(r); i >= 0 && cmpOrd(op, b2i(v.B[i]), cv) {
				sel = append(sel, r)
			}
		}
	}
	return sel
}

// SelectTrue appends to sel the positions in [0, n) where the boolean view
// is true and non-null (SQL WHERE semantics over an evaluated predicate).
func SelectTrue(v *View, n int, sel []int) []int {
	switch {
	case v.Const:
		if i := v.at(0); i >= 0 && v.B[i] {
			for r := 0; r < n; r++ {
				sel = append(sel, r)
			}
		}
	case v.Ids == nil && v.Nulls == nil:
		for r, x := range v.B[:n] {
			if x {
				sel = append(sel, r)
			}
		}
	default:
		for r := 0; r < n; r++ {
			if i := v.at(r); i >= 0 && v.B[i] {
				sel = append(sel, r)
			}
		}
	}
	return sel
}
