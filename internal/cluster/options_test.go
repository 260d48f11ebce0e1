package cluster

import (
	"strings"
	"testing"

	"prestolite/internal/core"
	"prestolite/internal/execution"
)

// TestSessionOptionsBothEntryPoints: the embedded engine and the coordinator
// both parse session properties with execution.ParseOptions, so every value
// behaves the same at each: a valid one (booleans in any strconv.ParseBool
// spelling) parses to the expected setting and the query runs; a malformed
// one fails the query at both with the same error; an absent one takes the
// default.
func TestSessionOptionsBothEntryPoints(t *testing.T) {
	catalogs := newCatalogs(t)
	coord, _ := newCluster(t, catalogs, 2)
	engine := core.New()
	engine.Catalogs = catalogs

	cases := []struct {
		name, value string
		bad         bool
		want        func(execution.Options) bool // valid values only
	}{
		{name: "", want: func(o execution.Options) bool { // defaults
			return o == execution.Options{SpillEnabled: true, ResultCache: true, AffinityScheduling: true}
		}},
		{name: "spill_enabled", value: "TRUE", want: func(o execution.Options) bool { return o.SpillEnabled }},
		{name: "spill_enabled", value: "false", want: func(o execution.Options) bool { return !o.SpillEnabled }},
		{name: "spill_enabled", value: "yes", bad: true},
		{name: "result_cache", value: "FALSE", want: func(o execution.Options) bool { return !o.ResultCache }},
		{name: "result_cache", value: "1", want: func(o execution.Options) bool { return o.ResultCache }},
		{name: "result_cache", value: "off", bad: true},
		{name: "affinity_scheduling", value: "F", want: func(o execution.Options) bool { return !o.AffinityScheduling }},
		{name: "affinity_scheduling", value: "", bad: true},
		{name: "task_concurrency", value: "2", want: func(o execution.Options) bool { return o.Drivers == 2 }},
		{name: "task_concurrency", value: "0", bad: true},
		{name: "task_concurrency", value: "two", bad: true},
		{name: "query_max_memory", value: "10000000", want: func(o execution.Options) bool { return o.MemoryLimit == 10000000 }},
		{name: "query_max_memory", value: "lots", bad: true},
		{name: "query_max_memory", value: "-1", bad: true},
		{name: "adaptive_exchange_rows", value: "-1", want: func(o execution.Options) bool { return o.AdaptiveExchangeRows == -1 }},
		{name: "adaptive_exchange_rows", value: "1.5", bad: true},
		{name: "partial_aggregation_bypass_rows", value: "64", want: func(o execution.Options) bool { return o.PartialAggBypassRows == 64 }},
		{name: "partial_aggregation_bypass_rows", value: "many", bad: true},
		{name: "query_max_run_ms", value: "60000", want: func(o execution.Options) bool { return o.MaxRunMs == 60000 }},
		{name: "query_max_run_ms", value: "0", bad: true},
	}
	const query = "SELECT city_id, count(*) AS n FROM trips GROUP BY city_id"
	for _, tc := range cases {
		props := map[string]string{}
		if tc.name != "" {
			props[tc.name] = tc.value
		}
		label := tc.name + "=" + tc.value
		opts, parseErr := execution.ParseOptions(props)
		s := session()
		s.Properties = props
		_, engineErr := engine.Query(s, query)
		_, coordErr := coord.Query(s, query)
		if tc.bad {
			if parseErr == nil || engineErr == nil || coordErr == nil {
				t.Errorf("%s: accepted (parse %v, engine %v, coordinator %v)", label, parseErr, engineErr, coordErr)
				continue
			}
			if engineErr.Error() != parseErr.Error() || coordErr.Error() != parseErr.Error() {
				t.Errorf("%s: error texts differ:\n parse %v\n engine %v\n coordinator %v", label, parseErr, engineErr, coordErr)
			}
			if !strings.Contains(parseErr.Error(), "bad session property "+tc.name) {
				t.Errorf("%s: error %q does not name the property", label, parseErr)
			}
			continue
		}
		if parseErr != nil || engineErr != nil || coordErr != nil {
			t.Errorf("%s: rejected (parse %v, engine %v, coordinator %v)", label, parseErr, engineErr, coordErr)
			continue
		}
		if !tc.want(opts) {
			t.Errorf("%s: parsed to %+v", label, opts)
		}
	}
}
