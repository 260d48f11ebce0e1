package execution

import (
	"errors"
	"fmt"
	"io"

	"prestolite/internal/block"
	"prestolite/internal/execution/vector"
	"prestolite/internal/expr"
	"prestolite/internal/geo"
	"prestolite/internal/planner"
)

// geoJoinOperator is the QuadTree spatial join (§VI). Build side geofences
// are indexed into a GeoIndex (build_geo_index on the fly) and the build
// rows with a shape are compacted into column stores parallel to it; probe
// rows look up candidate shapes via the QuadTree, verify with exact
// point-in-polygon, and emit (probe selection, build row gather) batches
// like the hash join.
type geoJoinOperator struct {
	node  *planner.GeoJoin
	left  Operator
	right Operator

	built bool
	index *geo.GeoIndex
	cols  []*vector.Column // build rows with a shape, parallel to index shapes

	probeSel  []int
	buildRows []int32
}

func newGeoJoinOperator(node *planner.GeoJoin, left, right Operator) *geoJoinOperator {
	o := &geoJoinOperator{node: node, left: left, right: right}
	for _, c := range node.Right.Outputs() {
		o.cols = append(o.cols, vector.NewColumn(c.Type))
	}
	return o
}

func (o *geoJoinOperator) build() error {
	var wkts []string
	views := newViews(len(o.cols))
	for {
		p, err := o.right.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return err
		}
		n := p.Count()
		for c, col := range o.cols {
			if err := viewOf(p.Blocks[c], col.Kind(), n, views[c]); err != nil {
				return err
			}
		}
		shapes := p.Blocks[o.node.ShapeChan]
		for row := 0; row < n; row++ {
			wkt, ok := shapes.Value(row).(string)
			if !ok {
				continue // NULL shape
			}
			wkts = append(wkts, wkt)
			for c, col := range o.cols {
				col.AppendRow(views[c], row)
			}
		}
	}
	idx, err := geo.BuildIndex(wkts)
	if err != nil {
		return fmt.Errorf("execution: building geo index: %w", err)
	}
	o.index = idx
	return nil
}

func (o *geoJoinOperator) Next() (*block.Page, error) {
	if !o.built {
		if err := o.build(); err != nil {
			return nil, err
		}
		o.built = true
	}
	for {
		p, err := o.left.Next()
		if err != nil {
			return nil, err
		}
		lngB, err := expr.Eval(o.node.Lng, p)
		if err != nil {
			return nil, err
		}
		latB, err := expr.Eval(o.node.Lat, p)
		if err != nil {
			return nil, err
		}
		lngB, latB = block.Unwrap(lngB), block.Unwrap(latB)
		sel, rows := o.probeSel[:0], o.buildRows[:0]
		for row := 0; row < p.Count(); row++ {
			lv, av := lngB.Value(row), latB.Value(row)
			if lv == nil || av == nil {
				continue
			}
			for _, shapeIdx := range o.index.Lookup(geo.Point{Lng: toF64(lv), Lat: toF64(av)}) {
				sel = append(sel, row)
				rows = append(rows, int32(shapeIdx))
			}
		}
		o.probeSel, o.buildRows = sel, rows
		if len(sel) == 0 {
			continue
		}
		nl := len(p.Blocks)
		blocks := make([]block.Block, nl+len(o.cols))
		for c := 0; c < nl; c++ {
			blocks[c] = p.Blocks[c].Mask(sel)
		}
		for c, col := range o.cols {
			blocks[nl+c] = col.Gather(rows)
		}
		return &block.Page{Blocks: blocks, N: len(sel)}, nil
	}
}

func toF64(v any) float64 {
	switch x := v.(type) {
	case float64:
		return x
	case int64:
		return float64(x)
	}
	panic(fmt.Sprintf("execution: not numeric: %T", v))
}

func (o *geoJoinOperator) Close() error {
	return errors.Join(o.left.Close(), o.right.Close())
}
