package execution

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"prestolite/internal/block"
	"prestolite/internal/expr"
	"prestolite/internal/planner"
	"prestolite/internal/resource"
	"prestolite/internal/types"
)

// spillEnv builds a capped query pool plus a spill manager rooted in a test
// temp dir, and registers a leak check: when the test ends no run may be
// live and no reservation may be held.
func spillEnv(t *testing.T, limit int64) (*resource.Pool, *resource.SpillManager) {
	t.Helper()
	pool := resource.NewPool("query", limit)
	mgr, err := resource.NewSpillManager(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if runs := mgr.LiveRuns(); len(runs) != 0 {
			t.Errorf("leaked spill runs: %v", runs)
		}
		if got := pool.Reserved(); got != 0 {
			t.Errorf("leaked reservation: %d bytes", got)
		}
	})
	return pool, mgr
}

// twoColPages generates deterministic (key, seq) pages: keys cycle with
// duplicates so sorts exercise stability and aggregations have real groups.
func twoColPages(rows, perPage, keyMod int) []*block.Page {
	var pages []*block.Page
	pb := block.NewPageBuilder([]*types.Type{types.Bigint, types.Bigint})
	n := 0
	for i := 0; i < rows; i++ {
		// Simple LCG-ish scatter so input is far from sorted.
		k := int64((i*2654435761 + 7) % keyMod)
		pb.AppendRow([]any{k, int64(i)})
		n++
		if n == perPage {
			pages = append(pages, pb.Build())
			pb = block.NewPageBuilder([]*types.Type{types.Bigint, types.Bigint})
			n = 0
		}
	}
	if n > 0 {
		pages = append(pages, pb.Build())
	}
	return pages
}

func drainRows(t *testing.T, op Operator) [][]any {
	t.Helper()
	pages, err := Drain(op)
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]any
	for _, p := range pages {
		for i := 0; i < p.Count(); i++ {
			rows = append(rows, p.Row(i))
		}
	}
	return rows
}

func sortedMultiset(rows [][]any) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	sort.Strings(out)
	return out
}

func twoColValues() *planner.Values {
	return &planner.Values{Cols: []planner.Column{
		{Name: "k", Type: types.Bigint}, {Name: "seq", Type: types.Bigint},
	}}
}

func TestSortSpillEquivalence(t *testing.T) {
	node := &planner.Sort{Child: twoColValues(), Keys: []planner.SortKey{{Channel: 0}}}
	input := twoColPages(4000, 128, 50)

	baseline := drainRows(t, newSortOperator(node, &pagesOperator{pages: input}, &opMem{op: "test"}))

	pool, mgr := spillEnv(t, 8<<10) // far below the ~64KB the buffer needs
	op := newSortOperator(node, &pagesOperator{pages: input}, &opMem{op: "test", pool: pool, spill: mgr})
	got := drainRows(t, op)

	// External sort must reproduce the in-memory order exactly — including
	// the stable tie-break on the seq column within duplicate keys.
	if !reflect.DeepEqual(got, baseline) {
		t.Fatalf("spilled sort diverged: %d vs %d rows (first diff at %d)",
			len(got), len(baseline), firstDiff(got, baseline))
	}
	if pool.Spilled() == 0 {
		t.Fatal("sort never spilled despite the tiny limit")
	}
}

func firstDiff(a, b [][]any) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if !reflect.DeepEqual(a[i], b[i]) {
			return i
		}
	}
	return -1
}

func joinNode(kind planner.JoinKind) *planner.Join {
	return &planner.Join{
		Kind: kind,
		Left: &planner.Values{Cols: []planner.Column{
			{Name: "lk", Type: types.Bigint}, {Name: "lseq", Type: types.Bigint},
		}},
		Right: &planner.Values{Cols: []planner.Column{
			{Name: "rk", Type: types.Bigint}, {Name: "rseq", Type: types.Bigint},
		}},
		LeftKeys: []int{0}, RightKeys: []int{0},
	}
}

// spillJoin runs node over the given pages twice — unlimited, and under a
// tiny cap with spill — and requires the spilled run to reproduce the
// unspilled rows exactly, having actually spilled.
func spillJoin(t *testing.T, node *planner.Join, probe, build []*block.Page) {
	t.Helper()
	baseline := drainRows(t, newVectorJoinOperator(&Context{}, node,
		&pagesOperator{pages: probe}, &pagesOperator{pages: build}))

	pool, mgr := spillEnv(t, 8<<10)
	op := newVectorJoinOperator(&Context{Memory: pool, Spill: mgr}, node,
		&pagesOperator{pages: probe}, &pagesOperator{pages: build})
	got := drainRows(t, op)

	// Hash-join output order is unspecified; compare as multisets.
	if !reflect.DeepEqual(sortedMultiset(got), sortedMultiset(baseline)) {
		t.Fatalf("spilled join diverged: %d vs %d rows", len(got), len(baseline))
	}
	if pool.Spilled() == 0 {
		t.Fatal("join never spilled despite the tiny limit")
	}
}

func testJoinSpill(t *testing.T, kind planner.JoinKind) {
	t.Helper()
	// Probe keys 0..99, build keys 0..49: LEFT joins have unmatched rows.
	spillJoin(t, joinNode(kind), twoColPages(1500, 96, 100), twoColPages(3000, 96, 50))
}

func TestInnerJoinSpillEquivalence(t *testing.T) { testJoinSpill(t, planner.JoinInner) }
func TestLeftJoinSpillEquivalence(t *testing.T)  { testJoinSpill(t, planner.JoinLeft) }

// seqBelow is the residual lseq < rseq over joinNode's layout.
func seqBelow(t *testing.T) expr.RowExpression {
	t.Helper()
	pred, err := expr.NewCall("lt",
		expr.NewVariable("lseq", 1, types.Bigint), expr.NewVariable("rseq", 3, types.Bigint))
	if err != nil {
		t.Fatal(err)
	}
	return pred
}

// The multi-pass LEFT join with a residual: match flags must survive the
// passes and count only rows the residual keeps, so a probe row whose
// candidates all fail it is null-extended exactly once.
func TestLeftJoinResidualSpillEquivalence(t *testing.T) {
	node := joinNode(planner.JoinLeft)
	node.Residual = seqBelow(t)
	spillJoin(t, node, twoColPages(1500, 96, 100), twoColPages(3000, 96, 50))
}

// The multi-pass keyless join: a cross join filtered by a residual (and
// its non-equi LEFT form) replays the probe stream against each spilled
// chunk of the cartesian build side.
func TestKeylessJoinSpillEquivalence(t *testing.T) {
	for _, kind := range []planner.JoinKind{planner.JoinCross, planner.JoinLeft} {
		node := joinNode(kind)
		node.LeftKeys, node.RightKeys = nil, nil
		node.Residual = seqBelow(t)
		spillJoin(t, node, twoColPages(60, 16, 100), twoColPages(900, 96, 50))
	}
}

func aggNode() *planner.Aggregate {
	return &planner.Aggregate{
		Child:   twoColValues(),
		GroupBy: []int{0},
		Aggs: []planner.Aggregation{{
			FuncName: "sum", Args: []int{1}, ArgTypes: []*types.Type{types.Bigint},
			OutputName: "s", InterType: types.Bigint, FinalType: types.Bigint,
		}},
		Step: planner.AggSingle,
	}
}

func TestAggregateSpillEquivalence(t *testing.T) {
	input := twoColPages(4000, 128, 600) // 600 groups: real hash-table pressure

	base, err := newVectorAggOperator(&Context{}, aggNode(), &pagesOperator{pages: input})
	if err != nil {
		t.Fatal(err)
	}
	baseline := drainRows(t, base)

	pool, mgr := spillEnv(t, 24<<10)
	op, err := newVectorAggOperator(&Context{Memory: pool, Spill: mgr}, aggNode(), &pagesOperator{pages: input})
	if err != nil {
		t.Fatal(err)
	}
	got := drainRows(t, op)

	// Group emission order may differ after a spill/merge round trip;
	// compare group → sum as sets.
	if !reflect.DeepEqual(sortedMultiset(got), sortedMultiset(baseline)) {
		t.Fatalf("spilled aggregation diverged: %d vs %d groups", len(got), len(baseline))
	}
	if pool.Spilled() == 0 {
		t.Fatal("aggregation never spilled despite the tiny limit")
	}
}

// requireInsufficient asserts err is the typed §XII.C failure caused by
// pool exhaustion, with nothing left reserved.
func requireInsufficient(t *testing.T, err error, pool *resource.Pool) {
	t.Helper()
	var insufficient ErrInsufficientResources
	if !errors.As(err, &insufficient) {
		t.Fatalf("want ErrInsufficientResources, got %v", err)
	}
	if !errors.Is(err, resource.ErrPoolExhausted) {
		t.Fatalf("cause should be pool exhaustion, got %v", err)
	}
	if got := pool.Reserved(); got != 0 {
		t.Fatalf("failed aggregation leaked %d bytes", got)
	}
}

// Satellite (a): hash aggregation must respect the memory limit through the
// same accounting path as join and sort — no spill manager, tiny limit, and
// a many-group aggregation must fail typed instead of buffering unbounded.
func TestAggregateEnforcesLimitWithoutSpill(t *testing.T) {
	pool := resource.NewPool("query", 4<<10)
	op, err := newVectorAggOperator(&Context{Memory: pool}, aggNode(), &pagesOperator{pages: twoColPages(4000, 128, 600)})
	if err != nil {
		t.Fatal(err)
	}
	_, err = Drain(op)
	requireInsufficient(t, err, pool)
}

// A DISTINCT aggregation cannot spill (its seen-sets would double count
// across runs), so over the cap it fails typed even with spill enabled.
func TestDistinctAggregateFailsOverCapWithSpill(t *testing.T) {
	node := aggNode()
	node.Aggs[0].Distinct = true
	pool, mgr := spillEnv(t, 4<<10)
	op, err := newVectorAggOperator(&Context{Memory: pool, Spill: mgr}, node, &pagesOperator{pages: twoColPages(4000, 128, 600)})
	if err != nil {
		t.Fatal(err)
	}
	_, err = Drain(op)
	requireInsufficient(t, err, pool)
	if pool.Spilled() != 0 {
		t.Fatalf("DISTINCT aggregation spilled %d bytes", pool.Spilled())
	}
}

// Satellite (b), operator level: abandoning a spilled operator mid-stream
// (query cancel) must remove its runs and release its reservations.
func TestSpillRunsCleanedOnEarlyClose(t *testing.T) {
	node := &planner.Sort{Child: twoColValues(), Keys: []planner.SortKey{{Channel: 0}}}
	pool, mgr := spillEnv(t, 8<<10)
	op := newSortOperator(node, &pagesOperator{pages: twoColPages(4000, 128, 50)},
		&opMem{op: "test", pool: pool, spill: mgr})
	if _, err := op.Next(); err != nil {
		t.Fatal(err)
	}
	if len(mgr.LiveRuns()) == 0 {
		t.Fatal("sort should have live spill runs mid-stream")
	}
	if err := op.Close(); err != nil {
		t.Fatal(err)
	}
	// spillEnv's cleanup asserts LiveRuns and Reserved are both zero.
}
