// Intra-task parallelism (§III Fig 1): a task runs N concurrent pipeline
// instances — drivers — over a shared split queue, the way Presto saturates
// a worker's cores. BuildParallel translates one plan into N driver
// pipelines joined by local exchanges; Build remains the serial (N=1) path
// and every operator implementation is reused unchanged — a driver's slice
// of an operator is still single-goroutine, and concurrency lives entirely
// in the exchanges.
package execution

import (
	"prestolite/internal/planner"
	"prestolite/internal/resource"
	"prestolite/internal/types"
)

// maxDrivers bounds the per-task parallelism a session property can request.
const maxDrivers = 64

// BuildParallel builds the operator tree for a plan with ctx.Drivers
// concurrent pipelines, gathered into one serial root stream. With Drivers
// ≤ 1 — or a plan with no table scan to parallelize (see
// planner.ParallelEligible) — it is exactly Build.
func BuildParallel(node planner.Node, ctx *Context) (Operator, error) {
	n := ctx.Drivers
	if n > maxDrivers {
		n = maxDrivers
	}
	if n <= 1 || !planner.ParallelEligible(node) {
		return Build(node, ctx)
	}
	if ctx.Memory == nil && ctx.MemoryLimit > 0 {
		ctx.Memory = resource.NewPool("query", ctx.MemoryLimit)
	}
	if ctx.Stats != nil && ctx.ids == nil {
		ctx.ids = planOperatorIDs(node)
	}
	streams, err := buildParallel(node, ctx, n)
	if err != nil {
		return nil, err
	}
	return gatherOne(ctx, streams), nil
}

// buildParallel builds node as k parallel streams (k ≤ n; k == 1 means the
// segment is serial). Stateless operators (filter, project) replicate per
// stream; stateful ones either partition their input so each driver owns a
// disjoint key range, or fall back to a serial instance behind a gather.
func buildParallel(node planner.Node, ctx *Context, n int) ([]Operator, error) {
	switch t := node.(type) {
	case *planner.Output:
		// Like the serial path: the child is instrumented under its own id
		// and the Output node layers its own accounting on the gathered root.
		streams, err := buildParallel(t.Child, ctx, n)
		if err != nil {
			return nil, err
		}
		return []Operator{ctx.instrument(t, gatherOne(ctx, streams))}, nil

	case *planner.TableScan:
		return buildParallelScan(t, ctx, n)

	case *planner.Filter:
		streams, err := buildParallel(t.Child, ctx, n)
		if err != nil {
			return nil, err
		}
		for i := range streams {
			streams[i] = ctx.instrument(t, &filterOperator{child: streams[i], predicate: t.Predicate})
		}
		return streams, nil

	case *planner.Project:
		streams, err := buildParallel(t.Child, ctx, n)
		if err != nil {
			return nil, err
		}
		for i := range streams {
			streams[i] = ctx.instrument(t, &projectOperator{child: streams[i], exprs: t.Exprs})
		}
		return streams, nil

	case *planner.Limit:
		streams, err := buildParallel(t.Child, ctx, n)
		if err != nil {
			return nil, err
		}
		if len(streams) > 1 {
			// Per-driver limits cut each stream early; the final limit after
			// the gather enforces the exact count. When it is satisfied its
			// Close tears the exchange down, which stops sibling drivers —
			// LIMIT over a huge scan does not finish the scan first.
			for i := range streams {
				streams[i] = &limitOperator{child: streams[i], remaining: t.N}
			}
		}
		final := &limitOperator{child: gatherOne(ctx, streams), remaining: t.N}
		return []Operator{ctx.instrument(t, final)}, nil

	case *planner.Sort:
		return buildParallelSort(t, ctx, n)

	case *planner.Aggregate:
		return buildParallelAggregate(t, ctx, n)

	case *planner.Join:
		return buildParallelJoin(t, ctx, n)

	case *planner.Union:
		// Concatenate the sides' streams (UNION ALL): each side keeps its
		// own parallelism and downstream gathers/exchanges accept the
		// combined stream set.
		var streams []Operator
		for _, src := range t.Sources {
			srcStreams, err := buildParallel(src, ctx, n)
			if err != nil {
				return nil, err
			}
			streams = append(streams, srcStreams...)
		}
		for i := range streams {
			streams[i] = ctx.instrument(t, streams[i])
		}
		return streams, nil

	default:
		// Values, RemoteSource, GeoJoin, and anything new: build the whole
		// subtree serially (instrumented by Build itself).
		op, err := Build(node, ctx)
		if err != nil {
			return nil, err
		}
		return []Operator{op}, nil
	}
}

// buildParallelScan shares one split queue across up to n scan drivers, so
// split assignment self-balances (a driver that drew a small split just
// takes the next one). A table with fewer splits than drivers gets one scan
// per split plus a round-robin fan-out, so downstream operators still run
// n-wide.
func buildParallelScan(t *planner.TableScan, ctx *Context, n int) ([]Operator, error) {
	provider, splits, err := scanSplits(t, ctx)
	if err != nil {
		return nil, err
	}
	k := n
	if len(splits) < k {
		k = len(splits)
	}
	if k <= 1 {
		// 0 or 1 split: a single scan driver...
		queue := &splitQueue{splits: splits}
		op := ctx.instrument(t, &scanOperator{
			scan: t, provider: provider, queue: queue, columns: t.ColumnOrdinals, ctx: ctx.Ctx,
		})
		if len(splits) == 0 {
			return []Operator{op}, nil
		}
		// ...with its pages rebalanced across n streams so the pipeline
		// above still runs parallel.
		return newLocalExchange(ctx, []Operator{op}, exRoundRobin, nil, n), nil
	}
	queue := &splitQueue{splits: splits}
	streams := make([]Operator, k)
	for i := range streams {
		streams[i] = ctx.instrument(t, &scanOperator{
			scan: t, provider: provider, queue: queue, columns: t.ColumnOrdinals, ctx: ctx.Ctx,
		})
	}
	if k < n {
		return newLocalExchange(ctx, streams, exRoundRobin, nil, n), nil
	}
	return streams, nil
}

// buildParallelAggregate is the partitioned parallel hash aggregation.
//
// Grouped single-step (the common case): each driver pre-aggregates its own
// stream into a partial hash map (driver-local — no shared map, no lock on
// the hot path), a hash-partition exchange routes the partials by group key,
// and per-partition FINAL aggregations merge them. Every group key lands
// wholly in one partition, so results are exact and each final map holds a
// disjoint key subset. Both layers are ordinary aggregation operators with
// their own memory handles, so spill-under-pressure works per driver.
//
// Grouped DISTINCT cannot pre-aggregate (seen-sets do not merge), so raw
// rows are partitioned by group key into n SINGLE aggregations instead.
// PARTIAL steps (worker fragments) stay per-driver with no exchange — the
// downstream FINAL dedups across drivers exactly as it dedups across tasks.
// A global (no GROUP BY) single-step splits into per-driver partials plus
// one serial final, mirroring the fragmenter's partial/final construction;
// global DISTINCT and FINAL steps run serially behind a gather.
func buildParallelAggregate(t *planner.Aggregate, ctx *Context, n int) ([]Operator, error) {
	streams, err := buildParallel(t.Child, ctx, n)
	if err != nil {
		return nil, err
	}
	serial := func() ([]Operator, error) {
		op, err := newVectorAggOperator(ctx, t, gatherOne(ctx, streams))
		if err != nil {
			return nil, err
		}
		return []Operator{ctx.instrument(t, op)}, nil
	}
	if len(streams) == 1 {
		return serial()
	}
	hasDistinct := false
	for _, a := range t.Aggs {
		if a.Distinct {
			hasDistinct = true
		}
	}

	if len(t.GroupBy) > 0 {
		switch {
		case t.Step == planner.AggPartial && !hasDistinct:
			// Driver-local partials; duplicates across drivers are merged by
			// the downstream FINAL (same contract as across tasks).
			outs := make([]Operator, len(streams))
			for i, s := range streams {
				op, err := newVectorAggOperator(ctx, t, s)
				if err != nil {
					return nil, err
				}
				outs[i] = ctx.instrument(t, op)
			}
			return outs, nil

		case t.Step == planner.AggSingle && !hasDistinct:
			// Partial per driver → partition by group key → final per
			// partition.
			partial := &planner.Aggregate{Child: t.Child, GroupBy: t.GroupBy, Aggs: t.Aggs, Step: planner.AggPartial}
			partials := make([]Operator, len(streams))
			for i, s := range streams {
				op, err := newVectorAggOperator(ctx, partial, s)
				if err != nil {
					return nil, err
				}
				partials[i] = op
			}
			// In partial output layout the group keys are channels 0..g-1.
			groups := len(t.GroupBy)
			keys := make([]int, groups)
			for i := range keys {
				keys[i] = i
			}
			endpoints, _ := newAdaptiveExchange(ctx, partials, keys, n, exGather)
			final := finalOverPartial(t, partial)
			outs := make([]Operator, n)
			for i, ep := range endpoints {
				op, err := newVectorAggOperator(ctx, final, ep)
				if err != nil {
					return nil, err
				}
				outs[i] = ctx.instrument(t, op)
			}
			return outs, nil

		case t.Step != planner.AggFinal:
			// DISTINCT (single or partial): partition the raw rows by group
			// key so each group's seen-sets live on exactly one driver.
			endpoints := newLocalExchange(ctx, streams, exPartition, t.GroupBy, n)
			outs := make([]Operator, n)
			for i, ep := range endpoints {
				op, err := newVectorAggOperator(ctx, t, ep)
				if err != nil {
					return nil, err
				}
				outs[i] = ctx.instrument(t, op)
			}
			return outs, nil
		}
		// FINAL over a parallel child (not produced by current plans): merge
		// serially — correctness over speed.
		return serial()
	}

	// Global aggregation.
	if hasDistinct || t.Step == planner.AggFinal {
		return serial()
	}
	partial := &planner.Aggregate{Child: t.Child, Aggs: t.Aggs, Step: planner.AggPartial}
	partials := make([]Operator, len(streams))
	for i, s := range streams {
		op, err := newVectorAggOperator(ctx, partial, s)
		if err != nil {
			return nil, err
		}
		partials[i] = op
	}
	if t.Step == planner.AggPartial {
		// The plan already expects intermediates: one partial per driver.
		for i := range partials {
			partials[i] = ctx.instrument(t, partials[i])
		}
		return partials, nil
	}
	final := finalOverPartial(t, partial)
	op, err := newVectorAggOperator(ctx, final, gatherOne(ctx, partials))
	if err != nil {
		return nil, err
	}
	return []Operator{ctx.instrument(t, op)}, nil
}

// finalOverPartial derives the FINAL aggregation node that merges partial's
// intermediate output back to t's result — the same construction the
// fragmenter uses for the distributed partial/final split.
func finalOverPartial(t *planner.Aggregate, partial *planner.Aggregate) *planner.Aggregate {
	groups := len(t.GroupBy)
	finalAggs := make([]planner.Aggregation, len(t.Aggs))
	for i, a := range t.Aggs {
		fa := a
		fa.Args = []int{groups + i} // the intermediate channel
		finalAggs[i] = fa
	}
	finalGroups := make([]int, groups)
	for i := range finalGroups {
		finalGroups[i] = i
	}
	return &planner.Aggregate{
		Child:   &planner.Values{Cols: partial.Outputs()},
		GroupBy: finalGroups,
		Aggs:    finalAggs,
		Step:    planner.AggFinal,
	}
}

// buildParallelJoin partitions both sides of an equi-join by join key with
// the same hash, so matching keys meet on the same driver: n independent
// joins, each building a hash table over its own key-disjoint build slice
// (the parallel join build) and probing it with its own probe slice. NULL
// keys route consistently too, which keeps LEFT-join null extension on
// exactly one driver. Joins without equi keys (cross joins) stay serial —
// the build side would have to be broadcast — but their inputs still scan in
// parallel behind gathers.
func buildParallelJoin(t *planner.Join, ctx *Context, n int) ([]Operator, error) {
	ls, err := buildParallel(t.Left, ctx, n)
	if err != nil {
		return nil, err
	}
	rs, err := buildParallel(t.Right, ctx, n)
	if err != nil {
		return nil, err
	}
	if len(t.LeftKeys) == 0 || (len(ls) == 1 && len(rs) == 1) {
		op := newVectorJoinOperator(ctx, t, gatherOne(ctx, ls), gatherOne(ctx, rs))
		return []Operator{ctx.instrument(t, op)}, nil
	}
	buildEnds, st := newAdaptiveExchange(ctx, rs, t.RightKeys, n, exBroadcast)
	probeEnds := newFollowerExchange(ctx, ls, t.LeftKeys, n, st)
	outs := make([]Operator, n)
	for i := range outs {
		op := newVectorJoinOperator(ctx, t, probeEnds[i], buildEnds[i])
		outs[i] = ctx.instrument(t, op)
	}
	return outs, nil
}

// buildParallelSort runs one in-memory/external sort per driver and merges
// the sorted streams: the per-driver sorts are the "sorted runs" and the
// k-way streaming merge is the same cursor dance the external sort already
// does over spilled runs. The passthrough exchange exists purely to drive
// the n sorts concurrently — each one buffers and sorts in its producer
// goroutine while the merge waits for first pages.
func buildParallelSort(t *planner.Sort, ctx *Context, n int) ([]Operator, error) {
	streams, err := buildParallel(t.Child, ctx, n)
	if err != nil {
		return nil, err
	}
	if len(streams) == 1 {
		op := newSortOperator(t, streams[0], newOpMem("ORDER BY buffering", ctx))
		return []Operator{ctx.instrument(t, op)}, nil
	}
	sorts := make([]Operator, len(streams))
	for i, s := range streams {
		// Not instrumented per driver: the merge below is the node's output.
		sorts[i] = newSortOperator(t, s, newOpMem("ORDER BY buffering", ctx))
	}
	endpoints := newLocalExchange(ctx, sorts, exPassthrough, nil, len(sorts))
	outs := t.Outputs()
	ts := make([]*types.Type, len(outs))
	for i, c := range outs {
		ts[i] = c.Type
	}
	merge := newStreamMergeOperator(t.Keys, ts, endpoints)
	return []Operator{ctx.instrument(t, merge)}, nil
}
