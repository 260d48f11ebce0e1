package execution

import (
	"errors"
	"io"

	"prestolite/internal/block"
	"prestolite/internal/execution/vector"
	"prestolite/internal/expr"
	"prestolite/internal/planner"
	"prestolite/internal/resource"
	"prestolite/internal/types"
)

// Estimated heap cost of hash-aggregation state: a fixed overhead per group
// plus one aggregate state per aggregate, and a per-entry cost for DISTINCT
// seen-sets. Group costs are only charged for grouped aggregations — a
// global aggregate is a single constant-size state, so the paper's
// "count(*) works at any limit" expectation holds.
const (
	aggGroupBaseCost = 96
	aggStateCost     = 48
	aggDistinctCost  = 32
)

// aggMergeCursor reads one sorted spill run during the merge, holding one
// page at a time. Like the sort merge, read-back pages are transient engine
// overhead (one bounded frame per open run), not user memory.
type aggMergeCursor struct {
	rr   *resource.RunReader
	run  *resource.Run
	page *block.Page
	row  int
	key  string // current row's encoded group key
	done bool
}

// appendGroupKey appends a hashable key for vals onto dst: the
// concatenation of each value's vector.AppendKey encoding — the same
// identity the group and join tables compare boxed keys by.
func appendGroupKey(dst []byte, vals []any) []byte {
	for _, v := range vals {
		dst = vector.AppendKey(dst, v)
	}
	return dst
}

// aggSpillTypes is the schema of a spilled aggregation page: the group-by
// key columns followed by one intermediate-state column per aggregate.
func aggSpillTypes(node *planner.Aggregate, fns []*expr.AggregateFunction) []*types.Type {
	childCols := node.Child.Outputs()
	ts := make([]*types.Type, 0, len(node.GroupBy)+len(fns))
	for _, ch := range node.GroupBy {
		ts = append(ts, childCols[ch].Type)
	}
	for i, fn := range fns {
		ts = append(ts, fn.IntermediateType(node.Aggs[i].ArgTypes))
	}
	return ts
}

// aggMerger k-way merges key-sorted aggregation spill runs ([group keys...,
// intermediate states...], sorted by encoded key; see
// vectorAggOperator.spillGroups), combining equal keys across runs with
// AddIntermediate — the same round-trip the distributed partial→final path
// uses — and streaming result pages out, so the full set of distinct groups
// (which by construction exceeded the budget) is never rebuilt in memory.
// Emission order after a spill is key-encoding order, not first-seen
// (grouped output order is unspecified).
type aggMerger struct {
	node      *planner.Aggregate
	fns       []*expr.AggregateFunction
	cursors   []*aggMergeCursor
	mergeKeys []any
	mergeBuf  []byte
}

func newAggMerger(node *planner.Aggregate, fns []*expr.AggregateFunction) *aggMerger {
	return &aggMerger{node: node, fns: fns}
}

// open starts a cursor per sorted run and positions each on its first row.
// The merge holds only the cursor pages plus one group's states at a time,
// so it fits any budget — unlike rebuilding the full distinct-group table,
// which by construction cannot fit (that is why it spilled).
func (o *aggMerger) open(runs []*resource.Run) error {
	o.mergeKeys = make([]any, len(o.node.GroupBy))
	for _, r := range runs {
		rr, err := r.Open()
		if err != nil {
			return err
		}
		c := &aggMergeCursor{rr: rr, run: r}
		o.cursors = append(o.cursors, c)
		if err := o.advanceCursor(c); err != nil {
			return err
		}
	}
	return nil
}

// close releases any cursors still holding open run readers.
func (o *aggMerger) close() error {
	var errs []error
	for _, c := range o.cursors {
		if c.rr != nil && !c.done {
			errs = append(errs, c.rr.Close())
		}
	}
	return errors.Join(errs...)
}

// advanceCursor moves a cursor to its next row, loading pages as needed; at
// the end of the run the file is removed immediately.
func (o *aggMerger) advanceCursor(c *aggMergeCursor) error {
	if c.page != nil {
		c.row++
		if c.row < c.page.Count() {
			o.cursorKey(c)
			return nil
		}
		c.page = nil
	}
	for {
		p, err := c.rr.Next()
		if errors.Is(err, io.EOF) {
			c.done = true
			err := c.rr.Close()
			c.run.Remove()
			return err
		}
		if err != nil {
			return err
		}
		if p.Count() == 0 {
			continue
		}
		c.page, c.row = p, 0
		o.cursorKey(c)
		return nil
	}
}

// cursorKey recomputes the cursor's encoded group key for its current row.
func (o *aggMerger) cursorKey(c *aggMergeCursor) {
	for i := range o.mergeKeys {
		o.mergeKeys[i] = c.page.Blocks[i].Value(c.row)
	}
	o.mergeBuf = appendGroupKey(o.mergeBuf[:0], o.mergeKeys)
	c.key = string(o.mergeBuf)
}

// next emits the next page of the k-way merge: the smallest key across
// the live cursors is combined (AddIntermediate over every run holding it)
// into one transient group and appended, until the page fills or the runs
// drain.
func (o *aggMerger) next() (*block.Page, error) {
	outs := o.node.Outputs()
	colTypes := make([]*types.Type, len(outs))
	for i, col := range outs {
		colTypes[i] = col.Type
	}
	nk := len(o.node.GroupBy)
	pb := block.NewPageBuilder(colTypes)
	row := make([]any, 0, len(outs))
	keys := make([]any, nk) // scratch: AppendRow copies per value
	for pb.Len() < spillPageRows {
		var best string
		found := false
		for _, c := range o.cursors {
			if !c.done && (!found || c.key < best) {
				best, found = c.key, true
			}
		}
		if !found {
			break
		}
		states := make([]expr.AggState, len(o.fns))
		for i, fn := range o.fns {
			states[i] = fn.NewState(o.node.Aggs[i].ArgTypes)
		}
		haveKeys := false
		for _, c := range o.cursors {
			for !c.done && c.key == best {
				if !haveKeys {
					haveKeys = true
					for i := 0; i < nk; i++ {
						keys[i] = c.page.Blocks[i].Value(c.row)
					}
				}
				for i := range o.fns {
					states[i].AddIntermediate(c.page.Blocks[nk+i].Value(c.row))
				}
				if err := o.advanceCursor(c); err != nil {
					return nil, err
				}
			}
		}
		row = row[:0]
		row = append(row, keys...)
		for _, st := range states {
			if o.node.Step == planner.AggPartial {
				row = append(row, st.Intermediate())
			} else {
				row = append(row, st.Final())
			}
		}
		pb.AppendRow(row)
	}
	if pb.Len() == 0 {
		return nil, io.EOF
	}
	return pb.Build(), nil
}
