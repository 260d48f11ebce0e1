package execution

import (
	"errors"
	"fmt"
	"io"
	"sort"

	"prestolite/internal/block"
	"prestolite/internal/execution/vector"
	"prestolite/internal/expr"
	"prestolite/internal/planner"
	"prestolite/internal/resource"
	"prestolite/internal/types"
)

// Adaptive partial aggregation: a partial step that observes almost no
// reduction — nearly every input row opens a new group — stops hashing and
// streams the rest of its input through in intermediate layout, leaving the
// single hash pass to the final step. High-cardinality group-bys otherwise
// pay for two full hash passes around the repartition exchange, which is
// exactly the partial/final split's overhead when it cannot help.
const (
	// partialBypassMinRows is how much input the partial hashes before the
	// reduction ratio is trusted (Context.PartialAggBypassRows overrides).
	// Small enough that a partial fed a few thin splits still gets to
	// decide, large enough that early duplicates keep a reducing partial
	// hashing.
	partialBypassMinRows = 512
	// partialBypassNum/partialBypassDen: bypass when
	// groups/rows >= Num/Den, i.e. the partial kept under 20% of its input.
	partialBypassNum = 8
	partialBypassDen = 10
)

// partialBypassRows resolves the bypass trigger threshold: the number of
// input rows to hash before checking the reduction ratio, or -1 when the
// bypass is disabled.
func partialBypassRows(ctx *Context) int {
	switch {
	case ctx.PartialAggBypassRows < 0:
		return -1
	case ctx.PartialAggBypassRows > 0:
		return ctx.PartialAggBypassRows
	}
	return partialBypassMinRows
}

// aggArgType is the aggregate's raw argument type, nil for count(*).
func aggArgType(a planner.Aggregation) *types.Type {
	if len(a.ArgTypes) == 0 {
		return nil
	}
	return a.ArgTypes[0]
}

// vectorAggOperator is hash aggregation (Fig 2's three step modes: SINGLE
// consumes raw rows and emits finals, PARTIAL emits intermediates, FINAL
// merges intermediates) over the vector kernels: pages are hashed in batch,
// group ids assigned through the open-addressing GroupTable, and per-group
// state is updated a column at a time. A global aggregation is a keyless
// table with one group, which emits one row even over empty input.
//
// Each aggregate picks its state kind from its argument type and DISTINCT
// flag: a typed flat kernel (vector.NewAgg) when one exists, else boxedAgg
// (one expr.AggState per group). Nested group keys live in boxed columns.
//
// Grouped aggregations account every new group against the query memory
// context; when a reservation is refused (and spill is enabled) the whole
// table is flushed to a key-sorted spill run and rebuilt empty, and once
// input is exhausted aggMerger streams the merged runs out. DISTINCT
// seen-sets cannot be merged across runs without double counting, so a
// DISTINCT aggregation hard-reserves and fails with Insufficient Resources
// when over the limit.
type vectorAggOperator struct {
	node  *planner.Aggregate
	child Operator
	fns   []*expr.AggregateFunction // the aggregates' expr states, used by the spill merge
	aggs  []vector.Agg
	boxed []*boxedAgg // the boxed entries of aggs (DISTINCT seen-set accounting)
	table *vector.GroupTable
	mem   *opMem

	hasher   vector.Hasher
	hashes   []uint64
	ids      []int32
	keyViews []*vector.View
	keyKinds []vector.Kind
	argViews []*vector.View
	argKinds []vector.Kind

	consumed    bool
	emitFrom    int
	hasDistinct bool

	// Adaptive partial aggregation state: rowsIn counts consumed input
	// rows; bypass flips when the reduction ratio check fails, after which
	// consume returns early and, once the hashed groups have drained,
	// passing streams the remaining input through untouched.
	bypassRows int
	rowsIn     int
	bypass     bool
	passing    bool

	chargedGroups   int
	chargedKeyBytes int64
	chargedSeen     int64
	runs            []*resource.Run
	merger          *aggMerger
}

func newVectorAggOperator(ctx *Context, node *planner.Aggregate, child Operator) (Operator, error) {
	childCols := node.Child.Outputs()
	keyTypes := make([]*types.Type, len(node.GroupBy))
	keyKinds := make([]vector.Kind, len(node.GroupBy))
	for i, ch := range node.GroupBy {
		keyTypes[i] = childCols[ch].Type
		keyKinds[i] = vector.KindOf(keyTypes[i])
	}
	o := &vectorAggOperator{
		node:       node,
		child:      child,
		mem:        newOpMem("hash aggregation", ctx),
		table:      vector.NewGroupTable(keyTypes),
		bypassRows: partialBypassRows(ctx),
		keyKinds:   keyKinds,
		keyViews:   newViews(len(node.GroupBy)),
		argViews:   newViews(len(node.Aggs)),
		argKinds:   make([]vector.Kind, len(node.Aggs)),
	}
	for i, a := range node.Aggs {
		fn, err := expr.ResolveAggregate(a.FuncName, a.ArgTypes)
		if err != nil {
			return nil, err
		}
		o.fns = append(o.fns, fn)
		o.hasDistinct = o.hasDistinct || a.Distinct
		agg := o.newAgg(i)
		o.aggs = append(o.aggs, agg)
		b, isBoxed := agg.(*boxedAgg)
		switch {
		case isBoxed:
			o.boxed = append(o.boxed, b)
			o.argKinds[i] = vector.KindBoxed
		case node.Step != planner.AggFinal && len(a.Args) == 1:
			o.argKinds[i] = vector.KindOf(a.ArgTypes[0])
		}
	}
	if len(node.GroupBy) == 0 || o.hasDistinct {
		// A global partial always reduces to one row, and a DISTINCT
		// partial cannot pass rows through without double counting.
		o.bypassRows = -1
	}
	return o, nil
}

// newAgg builds aggregate i's state store: its typed kernel when one
// exists, else the boxed kind. DISTINCT always takes the boxed kind.
func (o *vectorAggOperator) newAgg(i int) vector.Agg {
	a := o.node.Aggs[i]
	if !a.Distinct {
		if agg, ok := vector.NewAgg(a.FuncName, aggArgType(a)); ok {
			return agg
		}
	}
	return &boxedAgg{fn: o.fns[i], argTypes: a.ArgTypes, inter: a.InterType, final: a.FinalType, distinct: a.Distinct}
}

func newViews(n int) []*vector.View {
	vs := make([]*vector.View, n)
	for i := range vs {
		vs[i] = &vector.View{}
	}
	return vs
}

func (o *vectorAggOperator) Next() (*block.Page, error) {
	if !o.consumed {
		if err := o.consume(); err != nil {
			return nil, err
		}
		o.consumed = true
	}
	if o.merger != nil {
		return o.merger.next()
	}
	if o.passing {
		return o.passNext()
	}
	p, err := o.emitNext()
	if o.bypass && errors.Is(err, io.EOF) {
		// The groups hashed before the bypass tripped have all been
		// emitted (they are valid partials; the final step merges them with
		// the pass-through rows). Stream the rest of the input through.
		o.passing = true
		return o.passNext()
	}
	return p, err
}

// viewOf fills v from b as kind k: boxed kinds box every value, typed kinds
// take the zero-copy view and fall back to materialization for exotic
// encodings it rejects.
func viewOf(b block.Block, k vector.Kind, n int, v *vector.View) error {
	if k == vector.KindBoxed {
		vector.Box(b, n, v)
		return nil
	}
	if vector.Of(b, v) {
		return nil
	}
	if !vector.Materialize(b, k, n, v) {
		return fmt.Errorf("execution: block %T does not match its declared column type", b)
	}
	return nil
}

func (o *vectorAggOperator) consume() error {
	for {
		p, err := o.child.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return err
		}
		n := p.Count()
		if n == 0 {
			continue
		}
		if cap(o.hashes) < n {
			o.hashes = make([]uint64, n)
			o.ids = make([]int32, n)
		}
		hashes, ids := o.hashes[:n], o.ids[:n]
		o.hasher.HashPage(p, o.node.GroupBy, hashes)
		for i, ch := range o.node.GroupBy {
			if err := viewOf(p.Blocks[ch], o.keyKinds[i], n, o.keyViews[i]); err != nil {
				return err
			}
		}
		o.table.Assign(o.keyViews, n, hashes, ids)
		after := o.table.Len()
		for i, a := range o.node.Aggs {
			agg := o.aggs[i]
			agg.Grow(after)
			if o.node.Step == planner.AggFinal {
				// The input channel holds the intermediate value.
				if err := agg.AddIntermediate(ids, p.Blocks[a.Args[0]], n); err != nil {
					return err
				}
				continue
			}
			if len(a.Args) == 0 {
				agg.AddRaw(ids, nil, n)
				continue
			}
			if err := viewOf(p.Blocks[a.Args[0]], o.argKinds[i], n, o.argViews[i]); err != nil {
				return err
			}
			agg.AddRaw(ids, o.argViews[i], n)
		}
		if err := o.chargeGrowth(after); err != nil {
			return err
		}
		// Adaptive partial aggregation: once enough input has been hashed,
		// a partial that is not reducing (almost one group per row) stops
		// consuming — Next drains the hashed groups, then streams the rest
		// of the input through in intermediate layout. Spilled operators
		// never bypass: their emission already belongs to the run merger.
		if o.bypassRows >= 0 && o.node.Step == planner.AggPartial && len(o.runs) == 0 {
			o.rowsIn += n
			if o.rowsIn >= o.bypassRows && o.table.Len()*partialBypassDen >= o.rowsIn*partialBypassNum {
				o.bypass = true
				return nil
			}
		}
	}
	if len(o.runs) > 0 {
		// Spilled at least once: flush the remainder as the last sorted run
		// and hand emission over to the streaming merge.
		if err := o.spillGroups(); err != nil {
			return err
		}
		o.merger = newAggMerger(o.node, o.fns)
		return o.merger.open(o.runs)
	}
	if len(o.node.GroupBy) == 0 && o.table.Len() == 0 {
		// Global aggregation over empty input still produces one group.
		var id [1]int32
		o.table.Assign(nil, 1, nil, id[:])
		for _, agg := range o.aggs {
			agg.Grow(1)
		}
	}
	return nil
}

// chargeGrowth accounts the page's new groups and DISTINCT seen-set entries
// (charged per batch). A refused reservation flushes the whole table to a
// sorted run, including the groups just assigned.
func (o *vectorAggOperator) chargeGrowth(groups int) error {
	var cost int64
	if len(o.node.GroupBy) > 0 {
		keyBytes := o.table.KeyBytes()
		cost = int64(groups-o.chargedGroups)*(aggGroupBaseCost+int64(len(o.aggs))*aggStateCost) +
			(keyBytes - o.chargedKeyBytes)
		o.chargedGroups, o.chargedKeyBytes = groups, keyBytes
	}
	var seen int64
	for _, b := range o.boxed {
		seen += b.seenBytes
	}
	cost += seen - o.chargedSeen
	o.chargedSeen = seen
	if cost <= 0 {
		return nil
	}
	if o.hasDistinct {
		return o.mem.hardReserve(cost)
	}
	ok, err := o.mem.reserve(cost)
	if err != nil {
		return err
	}
	if !ok {
		return o.spillGroups()
	}
	return nil
}

// spillGroups writes every group to one key-sorted run (the aggMerger wire
// format) and resets the table and aggregator state, freeing their memory.
func (o *vectorAggOperator) spillGroups() error {
	ng := o.table.Len()
	if ng == 0 {
		return nil
	}
	nk := len(o.node.GroupBy)
	// Box and encode each group's key, then sort ids by encoded key so the
	// read-back merge can align equal groups across runs with plain cursors.
	enc := make([]string, ng)
	keyVals := make([]any, nk)
	var buf []byte
	for g := 0; g < ng; g++ {
		o.table.KeyValues(g, keyVals)
		buf = appendGroupKey(buf[:0], keyVals)
		enc[g] = string(buf)
	}
	order := make([]int, ng)
	for g := range order {
		order[g] = g
	}
	sort.Slice(order, func(i, j int) bool { return enc[order[i]] < enc[order[j]] })

	w, err := o.mem.newRun("agg")
	if err != nil {
		return err
	}
	ts := aggSpillTypes(o.node, o.fns)
	row := make([]any, len(ts))
	for off := 0; off < ng; off += spillPageRows {
		end := min(off+spillPageRows, ng)
		pb := block.NewPageBuilder(ts)
		for _, g := range order[off:end] {
			o.table.KeyValues(g, row[:nk])
			for i, agg := range o.aggs {
				row[nk+i] = agg.IntermediateValue(g)
			}
			pb.AppendRow(row)
		}
		if err := w.WritePage(pb.Build()); err != nil {
			w.Abandon()
			return o.mem.fail(err)
		}
	}
	run, err := w.Finish()
	if err != nil {
		return err
	}
	o.runs = append(o.runs, run)
	o.mem.addSpilled(run.Bytes())
	o.table.Reset()
	for _, agg := range o.aggs {
		agg.Reset()
	}
	o.chargedGroups, o.chargedKeyBytes = 0, 0
	o.mem.releaseAll()
	return nil
}

// emitNext streams the in-memory result a page at a time, building each
// column directly from the table's key stores and the aggregators' state
// slices — no per-row boxing on the way out.
func (o *vectorAggOperator) emitNext() (*block.Page, error) {
	ng := o.table.Len()
	if o.emitFrom >= ng {
		return nil, io.EOF
	}
	from := o.emitFrom
	to := min(from+spillPageRows, ng)
	o.emitFrom = to
	nk := len(o.node.GroupBy)
	blocks := make([]block.Block, nk+len(o.aggs))
	for c := 0; c < nk; c++ {
		blocks[c] = o.table.KeyBlock(c, from, to)
	}
	for i, agg := range o.aggs {
		if o.node.Step == planner.AggPartial {
			blocks[nk+i] = agg.EmitIntermediate(from, to)
		} else {
			blocks[nk+i] = agg.EmitFinal(from, to)
		}
	}
	return &block.Page{Blocks: blocks, N: to - from}, nil
}

// passNext streams the post-bypass remainder of the input: each child page
// becomes one intermediate-layout page with no grouping at all.
func (o *vectorAggOperator) passNext() (*block.Page, error) {
	for {
		p, err := o.child.Next()
		if err != nil {
			return nil, err
		}
		if n := p.Count(); n > 0 {
			return o.passThrough(p, n)
		}
	}
}

// passThrough converts one raw page to the partial output layout by
// treating every row as its own group: key columns pass through unchanged
// and each aggregate's intermediate column is produced by a single AddRaw
// over identity group ids. Fresh aggregator instances per page keep the
// emitted blocks from aliasing state slices that the next page would
// overwrite — exchange sinks buffer emitted pages. (DISTINCT aggregations
// never bypass, so no seen-set is involved.)
func (o *vectorAggOperator) passThrough(p *block.Page, n int) (*block.Page, error) {
	if cap(o.ids) < n {
		o.ids = make([]int32, n)
	}
	ids := o.ids[:n]
	for i := range ids {
		ids[i] = int32(i)
	}
	nk := len(o.node.GroupBy)
	blocks := make([]block.Block, nk+len(o.node.Aggs))
	for i, ch := range o.node.GroupBy {
		blocks[i] = p.Blocks[ch]
	}
	for i, a := range o.node.Aggs {
		agg := o.newAgg(i)
		agg.Grow(n)
		if len(a.Args) == 0 {
			agg.AddRaw(ids, nil, n)
		} else {
			if err := viewOf(p.Blocks[a.Args[0]], o.argKinds[i], n, o.argViews[i]); err != nil {
				return nil, err
			}
			agg.AddRaw(ids, o.argViews[i], n)
		}
		blocks[nk+i] = agg.EmitIntermediate(0, n)
	}
	return &block.Page{Blocks: blocks, N: n}, nil
}

func (o *vectorAggOperator) Close() error {
	var errs []error
	if o.merger != nil {
		errs = append(errs, o.merger.close())
	}
	for _, r := range o.runs {
		r.Remove()
	}
	o.runs = nil
	o.mem.releaseAll()
	errs = append(errs, o.child.Close())
	return errors.Join(errs...)
}

// boxedAgg is the state kind for aggregates no typed kernel covers —
// DISTINCT, approx_distinct, build_geo_index, min/max over nested types:
// one expr.AggState per group, fed the boxed argument column (a KindBoxed
// view). A DISTINCT aggregate also keeps a per-group seen-set of encoded
// argument values; seenBytes is its growth, which the operator
// hard-reserves.
type boxedAgg struct {
	fn           *expr.AggregateFunction
	argTypes     []*types.Type
	inter, final *types.Type
	distinct     bool

	states    []expr.AggState
	seen      []map[string]struct{}
	seenBytes int64
	vals      []any  // scratch: one raw row's arguments
	buf       []byte // scratch: one argument's seen-set encoding
}

func (a *boxedAgg) Grow(n int) {
	for len(a.states) < n {
		a.states = append(a.states, a.fn.NewState(a.argTypes))
		if a.distinct {
			a.seen = append(a.seen, map[string]struct{}{})
		}
	}
}

func (a *boxedAgg) AddRaw(ids []int32, arg *vector.View, n int) {
	for r := 0; r < n; r++ {
		g := ids[r]
		vals := a.vals[:0]
		if arg != nil {
			vals = append(vals, arg.A[r])
		}
		a.vals = vals
		if a.distinct {
			if len(vals) > 0 && vals[0] == nil {
				continue
			}
			a.buf = appendGroupKey(a.buf[:0], vals)
			if _, dup := a.seen[g][string(a.buf)]; dup {
				continue
			}
			a.seen[g][string(a.buf)] = struct{}{}
			a.seenBytes += int64(len(a.buf)) + aggDistinctCost
		}
		a.states[g].Add(vals)
	}
}

func (a *boxedAgg) AddIntermediate(ids []int32, b block.Block, n int) error {
	for r := 0; r < n; r++ {
		a.states[ids[r]].AddIntermediate(b.Value(r))
	}
	return nil
}

func (a *boxedAgg) EmitIntermediate(from, to int) block.Block {
	b := block.NewBuilder(a.inter, to-from)
	for _, st := range a.states[from:to] {
		b.Append(st.Intermediate())
	}
	return b.Build()
}

func (a *boxedAgg) EmitFinal(from, to int) block.Block {
	b := block.NewBuilder(a.final, to-from)
	for _, st := range a.states[from:to] {
		b.Append(st.Final())
	}
	return b.Build()
}

func (a *boxedAgg) IntermediateValue(g int) any { return a.states[g].Intermediate() }

func (a *boxedAgg) Reset() {
	a.states, a.seen, a.seenBytes = a.states[:0], a.seen[:0], 0
}
