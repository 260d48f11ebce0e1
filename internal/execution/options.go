package execution

import (
	"fmt"
	"math"
	"strconv"
)

// Options are the session properties that tune how a query runs. Every
// entry point — the embedded engine and the coordinator — parses them once
// per query with ParseOptions, so both accept the same values, reject the
// same malformed ones with the same error, and apply the same defaults.
type Options struct {
	TaskOptions
	// MemoryLimit caps the query's memory in bytes (query_max_memory);
	// 0 = no session cap (a resource group's per-query cap still applies).
	MemoryLimit int64
	// SpillEnabled lets blocking operators spill under memory pressure
	// (spill_enabled, default true).
	SpillEnabled bool
	// MaxRunMs is the query's deadline in milliseconds (query_max_run_ms);
	// 0 = none.
	MaxRunMs int
	// ResultCache lets the coordinator answer from, and fill, its result
	// cache (result_cache, default true).
	ResultCache bool
	// AffinityScheduling places splits on workers by rendezvous hashing
	// instead of round-robin (affinity_scheduling, default true).
	AffinityScheduling bool
}

// TaskOptions is the subset of Options the operators of one task read. It
// rides in Context and, across the wire, in every task request.
type TaskOptions struct {
	// Drivers is the intra-task parallelism degree for BuildParallel: how
	// many concurrent pipelines a task runs over its split queue (§III's
	// drivers; task_concurrency). 0 defers to the runner's default; ≤1
	// means serial. Build ignores it.
	Drivers int
	// AdaptiveExchangeRows overrides the row threshold below which a
	// partitioned local exchange collapses to a low-cardinality plan
	// (gather or broadcast). 0 means the default; negative disables the
	// adaptation entirely (adaptive_exchange_rows).
	AdaptiveExchangeRows int
	// PartialAggBypassRows overrides how many input rows a partial
	// aggregation hashes before checking its reduction ratio and, when
	// nearly every row opens a new group, switching to pass-through
	// (adaptive partial aggregation). 0 means the default; negative
	// disables the bypass (partial_aggregation_bypass_rows).
	PartialAggBypassRows int
}

// sessionOptions lists the properties ParseOptions reads, in the order it
// validates them; parse stores the value and reports whether it is valid.
var sessionOptions = []struct {
	name, want string
	parse      func(o *Options, v string) bool
}{
	{"query_max_memory", "a non-negative integer", func(o *Options, v string) bool { return parseInt(&o.MemoryLimit, v, 0) }},
	{"spill_enabled", "a boolean", func(o *Options, v string) bool { return parseBool(&o.SpillEnabled, v) }},
	{"task_concurrency", "a positive integer", func(o *Options, v string) bool { return parseInt(&o.Drivers, v, 1) }},
	{"adaptive_exchange_rows", "an integer", func(o *Options, v string) bool {
		return parseInt(&o.AdaptiveExchangeRows, v, math.MinInt)
	}},
	{"partial_aggregation_bypass_rows", "an integer", func(o *Options, v string) bool {
		return parseInt(&o.PartialAggBypassRows, v, math.MinInt)
	}},
	{"query_max_run_ms", "a positive integer", func(o *Options, v string) bool { return parseInt(&o.MaxRunMs, v, 1) }},
	{"result_cache", "a boolean", func(o *Options, v string) bool { return parseBool(&o.ResultCache, v) }},
	{"affinity_scheduling", "a boolean", func(o *Options, v string) bool { return parseBool(&o.AffinityScheduling, v) }},
}

// ParseOptions validates the execution-tuning session properties in props
// (other properties — planner and connector ones — are ignored) and returns
// them with defaults filled in.
func ParseOptions(props map[string]string) (Options, error) {
	o := Options{SpillEnabled: true, ResultCache: true, AffinityScheduling: true}
	for _, opt := range sessionOptions {
		v, set := props[opt.name]
		if set && !opt.parse(&o, v) {
			return Options{}, fmt.Errorf("execution: bad session property %s=%q: want %s", opt.name, v, opt.want)
		}
	}
	return o, nil
}

func parseInt[T int | int64](dst *T, v string, lo T) bool {
	n, err := strconv.ParseInt(v, 10, 64)
	*dst = T(n)
	return err == nil && int64(*dst) == n && *dst >= lo
}

func parseBool(dst *bool, v string) bool {
	b, err := strconv.ParseBool(v)
	*dst = b
	return err == nil
}
