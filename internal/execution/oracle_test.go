package execution

// The equivalence suites' oracle: a deliberately naive row-at-a-time
// evaluator for the plan shapes they generate — table scans, filters,
// map-based grouping and nested-loop joins over boxed rows, with no spill,
// no memory accounting, no batching and no parallelism. It shares only the
// expression evaluator and the aggregate states (expr.AggState) with the
// engine, so a defect in the engine's hash tables, typed kernels, exchanges
// or spill paths cannot hide in it.

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"prestolite/internal/connector"
	"prestolite/internal/expr"
	"prestolite/internal/planner"
)

// oracleRows evaluates node over the catalogs in reg.
func oracleRows(t *testing.T, node planner.Node, reg *connector.Registry) [][]any {
	t.Helper()
	switch n := node.(type) {
	case *planner.TableScan:
		return oracleScan(t, n, reg)
	case *planner.Filter:
		var out [][]any
		for _, row := range oracleRows(t, n.Child, reg) {
			if oracleTrue(t, n.Predicate, row) {
				out = append(out, row)
			}
		}
		return out
	case *planner.Aggregate:
		return oracleAggregate(t, n, oracleRows(t, n.Child, reg))
	case *planner.Join:
		return oracleJoin(t, n, oracleRows(t, n.Left, reg), oracleRows(t, n.Right, reg))
	default:
		t.Fatalf("oracle: no evaluation for %T", node)
		return nil
	}
}

func oracleScan(t *testing.T, n *planner.TableScan, reg *connector.Registry) [][]any {
	conn, err := reg.Get(n.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	splits, err := conn.SplitManager().Splits(n.Handle)
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]any
	for _, split := range splits {
		src, err := conn.RecordSetProvider().CreatePageSource(n.Handle, split, n.ColumnOrdinals)
		if err != nil {
			t.Fatal(err)
		}
		for {
			p, err := src.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < p.Count(); i++ {
				rows = append(rows, p.Row(i))
			}
		}
		if err := src.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return rows
}

// oracleTrue evaluates a predicate on one row (NULL is not true).
func oracleTrue(t *testing.T, e expr.RowExpression, row []any) bool {
	v, err := expr.EvalRowValue(e, row)
	if err != nil {
		t.Fatal(err)
	}
	return v == true
}

// oracleKey renders values as a map key: type plus printed value, so 1 and
// 1.0 differ, NULL is its own key, and nested values compare by contents.
func oracleKey(vals ...any) string {
	var b strings.Builder
	for _, v := range vals {
		fmt.Fprintf(&b, "%T\x00%v\x01", v, v)
	}
	return b.String()
}

// oracleAggregate is single-step hash aggregation over a Go map.
func oracleAggregate(t *testing.T, n *planner.Aggregate, rows [][]any) [][]any {
	if n.Step != planner.AggSingle {
		t.Fatalf("oracle: aggregation step %v", n.Step)
	}
	type group struct {
		keys   []any
		states []expr.AggState
		seen   []map[string]bool
	}
	groups := map[string]*group{}
	var order []string
	newGroup := func(k string, keys []any) *group {
		g := &group{keys: keys}
		for _, a := range n.Aggs {
			fn, err := expr.ResolveAggregate(a.FuncName, a.ArgTypes)
			if err != nil {
				t.Fatal(err)
			}
			g.states = append(g.states, fn.NewState(a.ArgTypes))
			g.seen = append(g.seen, map[string]bool{})
		}
		groups[k] = g
		order = append(order, k)
		return g
	}
	for _, row := range rows {
		keys := make([]any, len(n.GroupBy))
		for i, ch := range n.GroupBy {
			keys[i] = row[ch]
		}
		k := oracleKey(keys...)
		g := groups[k]
		if g == nil {
			g = newGroup(k, keys)
		}
		for i, a := range n.Aggs {
			var args []any
			for _, ch := range a.Args {
				args = append(args, row[ch])
			}
			if a.Distinct {
				if args[0] == nil || g.seen[i][oracleKey(args...)] {
					continue
				}
				g.seen[i][oracleKey(args...)] = true
			}
			g.states[i].Add(args)
		}
	}
	if len(n.GroupBy) == 0 && len(groups) == 0 {
		newGroup("", nil) // a global aggregate has one row, even over nothing
	}
	var out [][]any
	for _, k := range order {
		g := groups[k]
		row := append([]any{}, g.keys...)
		for _, st := range g.states {
			row = append(row, st.Final())
		}
		out = append(out, row)
	}
	return out
}

// oracleJoin is a nested-loop join: every (left, right) pair whose keys are
// equal and non-NULL and whose residual holds; unmatched LEFT rows are
// null-extended.
func oracleJoin(t *testing.T, n *planner.Join, left, right [][]any) [][]any {
	// joinKey renders a row's join key; ok is false when any part is NULL.
	joinKey := func(row []any, chans []int) (string, bool) {
		vals := make([]any, len(chans))
		for i, ch := range chans {
			if vals[i] = row[ch]; vals[i] == nil {
				return "", false
			}
		}
		return oracleKey(vals...), true
	}
	rightKeys := make([]string, len(right))
	rightOK := make([]bool, len(right))
	for i, r := range right {
		rightKeys[i], rightOK[i] = joinKey(r, n.RightKeys)
	}
	nr := len(n.Right.Outputs())
	var out [][]any
	for _, l := range left {
		lk, lok := joinKey(l, n.LeftKeys)
		matched := false
		for i, r := range right {
			if !lok || !rightOK[i] || lk != rightKeys[i] {
				continue
			}
			row := append(append([]any{}, l...), r...)
			if n.Residual != nil && !oracleTrue(t, n.Residual, row) {
				continue
			}
			matched = true
			out = append(out, row)
		}
		if !matched && n.Kind == planner.JoinLeft {
			out = append(out, append(append([]any{}, l...), make([]any, nr)...))
		}
	}
	return out
}
