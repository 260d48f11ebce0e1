package main

import (
	"fmt"
	"testing"
	"time"

	"prestolite/internal/core"
	"prestolite/internal/workload"
)

func TestGeneratorsAreDeterministic(t *testing.T) {
	streams := map[string]func(seed int64) stream{
		"dashboard":     func(int64) stream { return &dashboardStream{} },
		"adhoc_nested":  func(seed int64) stream { return newAdhocStream(seed) },
		"hybrid_ingest": func(seed int64) stream { return newHybridStream(seed) },
	}
	for name, mk := range streams {
		a, b, other := mk(7), mk(7), mk(8)
		differs := false
		for i := 0; i < 200; i++ {
			x, y, z := a.next(), b.next(), other.next()
			if x != y {
				t.Fatalf("%s: statement %d differs for the same seed: %q vs %q", name, i, x.SQL, y.SQL)
			}
			differs = differs || x != z
		}
		if name != "dashboard" && !differs {
			t.Errorf("%s: seeds 7 and 8 generated the same 200 statements", name)
		}
	}
	now := time.Now()
	for seq := int64(0); seq < 100; seq++ {
		x, y := workload.MakeStreamEvent(7, seq, now), workload.MakeStreamEvent(7, seq, now)
		if x != y {
			t.Fatalf("event %d differs for the same seed: %+v vs %+v", seq, x, y)
		}
	}
}

func TestAdhocCoversEveryClassEquallyOften(t *testing.T) {
	s := newAdhocStream(3)
	seen := map[string]int{}
	for i := 0; i < 3*len(adhocClasses); i++ {
		seen[s.next().Class]++
	}
	for _, c := range adhocClasses {
		if seen[c.name] != 3 {
			t.Errorf("class %q ran %d times in 3 rounds, want 3", c.name, seen[c.name])
		}
	}
}

// TestTinyRunReportsEveryMetric runs each workload for one second, untraced
// and traced, and checks that every named metric is printed with its unit
// and that every answer checked out.
func TestTinyRunReportsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("starts the full stack six times")
	}
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := run(wl, 1, 1, traced, t.TempDir(), false)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", wl, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := e2eUnits
			if traced {
				want = layerUnits
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", wl, traced, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				if !ok || m.Unit != unit || unit == "" {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %q", wl, traced, name, m, unit)
				}
			}
			if !traced && res.Metrics["qps"].Value <= 0 {
				t.Errorf("%s: qps %v", wl, res.Metrics["qps"].Value)
			}
		}
	}
}

// TestWindowsHoldMinTailSamples checks that a phase's windows close once
// they hold minTailSamples latencies and that a short trailing window joins
// the one before it.
func TestWindowsHoldMinTailSamples(t *testing.T) {
	cases := []struct {
		perSlice []int
		want     [][2]int // window slice ranges
	}{
		{[]int{1000, 1200, 1000, 1500}, [][2]int{{0, 0}, {1, 1}, {2, 2}, {3, 3}}},
		{[]int{600, 600, 600, 300}, [][2]int{{0, 3}}},
		{[]int{1000, 700, 10, 400, 5}, [][2]int{{0, 0}, {1, 4}}},
		{[]int{200, 200}, [][2]int{{0, 1}}},
	}
	for _, c := range cases {
		p := &phase{dur: time.Duration(len(c.perSlice)) * sliceLen}
		p.start = time.Now()
		p.slots = make([]slot, len(c.perSlice))
		for k := 0; k <= len(c.perSlice); k++ {
			p.cpuMarks = append(p.cpuMarks, time.Duration(k)*time.Second)
		}
		total := 0
		for k, n := range c.perSlice {
			at := p.start.Add(time.Duration(k)*sliceLen + sliceLen/2)
			for i := 0; i < n; i++ {
				p.record(at, float64(i))
			}
			total += n
			if k >= 1 {
				p.closeSlice(k - 1)
			}
		}
		p.finish()
		var got [][2]int
		n := 0.0
		for _, w := range p.windows {
			got = append(got, [2]int{w.from, w.to})
			n += w.qps * sliceLen.Seconds() * float64(w.to-w.from+1)
		}
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("slices %v: windows %v, want %v", c.perSlice, got, c.want)
		}
		if int(n+0.5) != total || p.late != 0 {
			t.Errorf("slices %v: windows hold %v latencies (%d late), want %d", c.perSlice, n, p.late, total)
		}
	}
}

func TestCheckRejectsWrongRow(t *testing.T) {
	d, err := generate("dashboard")
	if err != nil {
		t.Fatal(err)
	}
	o, err := newOracle(d)
	if err != nil {
		t.Fatal(err)
	}
	st := dashboardTiles[0]
	res, err := o.engine.Query(core.DefaultSession(o.catalog, o.schema), st.SQL)
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows()
	r := newReplies()
	r.add(st, fingerprintRows(rows, st.Ordered))
	if wrong, first, err := r.verify(o); err != nil || wrong != 0 {
		t.Fatalf("right reply: wrong=%d (%s) err=%v", wrong, first, err)
	}
	bad := make([][]any, len(rows))
	for i, row := range rows {
		bad[i] = append([]any(nil), row...)
	}
	bad[1][2] = bad[1][2].(int64) + 1
	r.add(st, fingerprintRows(bad, st.Ordered))
	if wrong, first, err := r.verify(o); err != nil || wrong != 1 || first == "" {
		t.Fatalf("wrong row: wrong=%d (%q) err=%v, want 1 rejected", wrong, first, err)
	}

	// A swapped row order is wrong only where order is part of the answer.
	swapped := append([][]any{rows[1], rows[0]}, rows[2:]...)
	if fingerprintRows(swapped, true) == fingerprintRows(rows, true) {
		t.Error("ordered fingerprint ignores row order")
	}
	if fingerprintRows(swapped, false) != fingerprintRows(rows, false) {
		t.Error("unordered fingerprint depends on row order")
	}

	// The hybrid checks reject a wrong historical sum and a real-time count
	// above what was sent.
	h := newHybridState()
	hist := statement{Class: hybridHist, Arg: 8, Ordered: true}
	good := [][]any{}
	for _, c := range []string{"br", "de", "fr", "in", "jp", "mx", "uk", "us"} {
		i := countryIndex(c)
		good = append(good, []any{c, histClicks(i)})
	}
	if msg := h.check(hist, good, time.Now(), nil, newSeen()); msg != "" {
		t.Fatalf("right historical reply rejected: %s", msg)
	}
	good[0][1] = good[0][1].(int64) + 1
	if msg := h.check(hist, good, time.Now(), nil, newSeen()); msg == "" {
		t.Error("wrong historical sum accepted")
	}
	probe := statement{Class: hybridProbe, Ordered: true}
	if msg := h.check(probe, [][]any{{"us", h.sentN[countryIndex("us")] + 1, streamBase}}, time.Now(), nil, newSeen()); msg == "" {
		t.Error("real-time count above events sent accepted")
	}
}
