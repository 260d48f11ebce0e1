package main

// Seeded statement generators. The program under test sees only the SQL text
// these produce (and, for hybrid_ingest, the generated events); the same
// seed always yields the same statements in the same order.

import (
	"fmt"
	"math/rand"
)

// statement is one query a client sends.
type statement struct {
	Class string
	SQL   string
	// Ordered marks results whose row order is part of the answer.
	Ordered bool
	// Arg is the seeded ts bound of the hybrid H2 and H3 classes.
	Arg int64
}

// dashboardTiles is one dashboard page: six aggregate tiles over lineitem
// that refresh together, byte-identical every time.
var dashboardTiles = []statement{
	{Class: "tile1", SQL: `SELECT l_returnflag, l_linestatus, count(*) AS n, sum(l_quantity) AS q FROM lineitem GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus`, Ordered: true},
	{Class: "tile2", SQL: `SELECT count(*) AS n FROM lineitem WHERE l_quantity < 25.0`, Ordered: true},
	{Class: "tile3", SQL: `SELECT l_shipmode, count(*) AS n FROM lineitem GROUP BY l_shipmode ORDER BY l_shipmode`, Ordered: true},
	{Class: "tile4", SQL: `SELECT l_returnflag, sum(l_extendedprice) AS revenue FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag`, Ordered: true},
	{Class: "tile5", SQL: `SELECT l_linestatus, avg(l_discount) AS d, max(l_tax) AS t FROM lineitem GROUP BY l_linestatus ORDER BY l_linestatus`, Ordered: true},
	{Class: "tile6", SQL: `SELECT count(*) AS n FROM lineitem WHERE l_shipmode = 'AIR'`, Ordered: true},
}

// stream yields one client session's statements.
type stream interface{ next() statement }

// dashboardStream refreshes the tiles in order, forever.
type dashboardStream struct{ i int }

func (s *dashboardStream) next() statement {
	st := dashboardTiles[s.i%len(dashboardTiles)]
	s.i++
	return st
}

// adhocLiterals draws the seeded literals of one ad-hoc statement: a date
// partition, a city id, a fare threshold and a trip id inside that date.
// Fares are uniform in [5, 50); thresholds stay in a band so that a class's
// work varies little from literal to literal, and so from seed to seed.
type adhocLiterals struct {
	date string
	city int
	fare float64
	trip int
}

func drawLiterals(r *rand.Rand) adhocLiterals {
	d := r.Intn(tripsConfig.Dates)
	return adhocLiterals{
		date: fmt.Sprintf("2017-03-%02d", d+1),
		city: r.Intn(200),
		fare: 20 + float64(r.Intn(1500))/100,
		trip: d*tripsConfig.RowsPerDate + 1 + r.Intn(tripsConfig.RowsPerDate),
	}
}

// adhocClasses are Fig 17's 21 query classes over the nested trips table (4
// scans, 2 of them needle lookups; 5 group-bys; 12 joins), with seeded
// literals so repeats, and so result-cache hits, are rare. The scan classes
// carry a selective predicate so replies stay small.
var adhocClasses = []struct {
	name    string
	ordered bool
	sql     func(l adhocLiterals) string
}{
	{"Q01 scan projection", false, func(l adhocLiterals) string {
		return fmt.Sprintf("SELECT base.driver_uuid, base.fare FROM trips WHERE datestr = '%s' AND base.fare > %.2f", l.date, 44+l.fare/10)
	}},
	{"Q02 scan nested fields", false, func(l adhocLiterals) string {
		return fmt.Sprintf("SELECT base.status.code, base.vehicle.make, base.distance_km FROM trips WHERE base.city_id = %d", l.city)
	}},
	{"Q03 needle trip", false, func(l adhocLiterals) string {
		return fmt.Sprintf("SELECT base.driver_uuid FROM trips WHERE datestr = '%s' AND trip_id = %d", l.date, l.trip)
	}},
	{"Q04 needle deep field", false, func(l adhocLiterals) string {
		return fmt.Sprintf("SELECT base.client_uuid FROM trips WHERE base.city_id = %d AND base.fare > %.2f", tripsConfig.NeedleCityID, l.fare)
	}},
	{"Q05 groupby city", false, func(l adhocLiterals) string {
		return fmt.Sprintf("SELECT base.city_id, count(*) FROM trips WHERE base.fare > %.2f GROUP BY base.city_id", l.fare)
	}},
	{"Q06 groupby date revenue", false, func(l adhocLiterals) string {
		return fmt.Sprintf("SELECT datestr, sum(base.fare), avg(base.tip) FROM trips WHERE base.fare > %.2f GROUP BY datestr", l.fare)
	}},
	{"Q07 groupby product", false, func(l adhocLiterals) string {
		return fmt.Sprintf("SELECT base.product, count(*), avg(base.distance_km) FROM trips WHERE base.city_id <> %d GROUP BY base.product", l.city)
	}},
	{"Q08 groupby status", false, func(l adhocLiterals) string {
		return fmt.Sprintf("SELECT base.status.code, count(*) FROM trips WHERE datestr = '%s' AND base.fare > %.2f GROUP BY base.status.code", l.date, l.fare)
	}},
	{"Q09 groupby filtered", false, func(l adhocLiterals) string {
		return fmt.Sprintf("SELECT base.city_id, max(base.fare) FROM trips WHERE base.fare > %.2f GROUP BY base.city_id", l.fare)
	}},
	{"Q10 join cities", false, func(l adhocLiterals) string {
		return fmt.Sprintf("SELECT c.name, count(*) FROM trips t JOIN cities c ON t.base.city_id = c.city_id WHERE t.base.fare > %.2f GROUP BY c.name", l.fare)
	}},
	{"Q11 join cities filtered", false, func(l adhocLiterals) string {
		return fmt.Sprintf("SELECT c.region, sum(t.base.fare) FROM trips t JOIN cities c ON t.base.city_id = c.city_id WHERE t.datestr = '%s' AND t.base.fare > %.2f GROUP BY c.region", l.date, l.fare)
	}},
	{"Q12 join drivers", false, func(l adhocLiterals) string {
		return fmt.Sprintf("SELECT d.tier, count(*) FROM trips t JOIN drivers d ON t.base.driver_uuid = d.driver_uuid WHERE t.base.fare > %.2f GROUP BY d.tier", l.fare)
	}},
	{"Q13 join drivers gold", false, func(l adhocLiterals) string {
		return fmt.Sprintf("SELECT count(*) FROM trips t JOIN drivers d ON t.base.driver_uuid = d.driver_uuid WHERE d.tier = 'gold' AND t.base.city_id <> %d", l.city)
	}},
	{"Q14 join both dims", false, func(l adhocLiterals) string {
		return fmt.Sprintf("SELECT c.region, d.tier, count(*) FROM trips t JOIN cities c ON t.base.city_id = c.city_id JOIN drivers d ON t.base.driver_uuid = d.driver_uuid WHERE t.base.fare > %.2f GROUP BY c.region, d.tier", l.fare)
	}},
	{"Q15 join revenue by region", false, func(l adhocLiterals) string {
		return fmt.Sprintf("SELECT c.region, sum(t.base.fare + t.base.tip) FROM trips t JOIN cities c ON t.base.city_id = c.city_id WHERE t.base.fare > %.2f GROUP BY c.region", l.fare)
	}},
	{"Q16 join high fares", false, func(l adhocLiterals) string {
		return fmt.Sprintf("SELECT c.name, max(t.base.fare) FROM trips t JOIN cities c ON t.base.city_id = c.city_id WHERE t.base.fare > %.2f GROUP BY c.name", 40+l.fare/5)
	}},
	{"Q17 join product mix", false, func(l adhocLiterals) string {
		return fmt.Sprintf("SELECT c.region, t.base.product, count(*) FROM trips t JOIN cities c ON t.base.city_id = c.city_id WHERE t.base.fare > %.2f GROUP BY c.region, t.base.product", l.fare)
	}},
	{"Q18 join canceled", false, func(l adhocLiterals) string {
		return fmt.Sprintf("SELECT c.name, count(*) FROM trips t JOIN cities c ON t.base.city_id = c.city_id WHERE t.base.status.reason = 'canceled' AND t.base.fare > %.2f GROUP BY c.name", l.fare)
	}},
	{"Q19 join vehicles", false, func(l adhocLiterals) string {
		return fmt.Sprintf("SELECT t.base.vehicle.make, c.region, avg(t.base.distance_km) FROM trips t JOIN cities c ON t.base.city_id = c.city_id WHERE t.base.fare > %.2f GROUP BY t.base.vehicle.make, c.region", l.fare)
	}},
	{"Q20 join driver revenue", false, func(l adhocLiterals) string {
		return fmt.Sprintf("SELECT d.tier, sum(t.base.fare) FROM trips t JOIN drivers d ON t.base.driver_uuid = d.driver_uuid WHERE t.datestr = '%s' AND t.base.fare > %.2f GROUP BY d.tier", l.date, l.fare)
	}},
	{"Q21 join top cities", true, func(l adhocLiterals) string {
		return fmt.Sprintf("SELECT c.name, count(*) AS n FROM trips t JOIN cities c ON t.base.city_id = c.city_id WHERE t.base.fare > %.2f GROUP BY c.name ORDER BY n DESC, c.name LIMIT 10", l.fare)
	}},
}

// adhocStream walks seeded permutations of the 21 classes, so every class
// runs equally often whatever the seed, each time with fresh literals.
type adhocStream struct {
	r     *rand.Rand
	order []int
	i     int
}

func newAdhocStream(seed int64) *adhocStream { return &adhocStream{r: rand.New(rand.NewSource(seed))} }

func (s *adhocStream) next() statement {
	if s.i == len(s.order) {
		s.order, s.i = s.r.Perm(len(adhocClasses)), 0
	}
	c := adhocClasses[s.order[s.i]]
	s.i++
	return statement{Class: c.name, SQL: c.sql(drawLiterals(s.r)), Ordered: c.ordered}
}

// Hybrid statements. H1 spans both sides, H2 spans both sides from a seeded
// lower bound, H3 reads only history below the watermark. The probe reads
// only the real-time side and reports each country's newest event.
const (
	hybridAll   = "H1 all by country"
	hybridSince = "H2 count since"
	hybridHist  = "H3 history by country"
	hybridProbe = "P freshness probe"
)

var probeSQL = fmt.Sprintf("SELECT country, count(*) AS n, max(ts) AS m FROM events WHERE ts >= %d GROUP BY country ORDER BY country", boundary)

// hybridStream alternates a seeded hybrid query with the freshness probe.
type hybridStream struct {
	r *rand.Rand
	i int
}

func newHybridStream(seed int64) *hybridStream {
	return &hybridStream{r: rand.New(rand.NewSource(seed))}
}

func (s *hybridStream) next() statement {
	s.i++
	if s.i%2 == 0 {
		return statement{Class: hybridProbe, SQL: probeSQL, Ordered: true}
	}
	x := int64(s.r.Intn(histRows))
	switch s.r.Intn(3) {
	case 0:
		return statement{Class: hybridAll, SQL: "SELECT country, count(*) AS n, sum(clicks) AS s FROM events GROUP BY country ORDER BY country", Ordered: true}
	case 1:
		return statement{Class: hybridSince, SQL: fmt.Sprintf("SELECT count(*) AS n FROM events WHERE ts >= %d", x), Ordered: true, Arg: x}
	}
	return statement{Class: hybridHist, SQL: fmt.Sprintf("SELECT country, sum(clicks) AS s FROM events WHERE ts < %d GROUP BY country ORDER BY country", x), Ordered: true, Arg: x}
}
