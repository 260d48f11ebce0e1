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

// joinBatchRows bounds the (probe row, build row) pairs one output batch
// holds beyond the probe page's own size, so a cartesian product or a
// skewed key streams out in bounded pages.
const joinBatchRows = 4 * spillPageRows

// vectorJoinOperator is the hash join for every INNER, LEFT and CROSS join:
// the build (right) side is compacted into typed column stores indexed by a
// chained open-addressing JoinTable — keyless for cross and non-equi joins,
// whose single chain enumerates the cartesian product — and probe pages are
// hashed and matched in batch. Matches come out as (probe selection vector,
// build row gather) pairs, so output columns are built with typed copies
// instead of per-row boxing. A residual predicate is a selection over each
// gathered batch; LEFT match flags are set from the rows that survive it.
//
// Under memory pressure (with spill enabled) it becomes a multi-pass join:
// the store built so far and the build pages that do not fit are spilled to
// runs, the probe side is buffered (spilling under the same pressure), and
// then each run is loaded in turn as a build chunk, its table rebuilt, and
// the whole probe stream replayed against it. LEFT joins track per-probe-row
// match flags across passes and emit the null-extended rows in a final
// pass. Output order in spilled mode differs from the streaming path
// (hash-join output order is unspecified).
type vectorJoinOperator struct {
	node  *planner.Join
	left  Operator
	right Operator
	mem   *opMem

	leftTypes  []*types.Type
	rightTypes []*types.Type
	rightKinds []vector.Kind
	keyKinds   []vector.Kind // probe-side key kinds

	cols    []*vector.Column
	jt      *vector.JoinTable
	rows    int
	charged int64
	built   bool

	hasher   vector.Hasher
	hashes   []uint64
	rowViews []*vector.View
	insViews []*vector.View
	keyViews []*vector.View

	// The probe page in flight: its rows from base on in the probe stream
	// (nonzero only when replaying a spilled stream), and where the bounded
	// probe stopped.
	probe     *block.Page
	base      int
	cur       vector.ProbeCursor
	probeDone bool
	probeSel  []int
	buildRows []int32
	keep      []int
	// matched holds LEFT-join match flags, indexed base+row: per probe page
	// when streaming, across the whole probe stream when spilled.
	matched   []bool
	unmatched []int

	// Spilled-mode state: the build side as runs (each one chunk), the
	// buffered probe side, and the replay position.
	spilled    bool
	buildSpill pageStream
	probeSpill pageStream
	probeIter  *streamIter
	probeBase  int
	chunkIdx   int
	chunkBytes int64
	finalLeft  bool
}

func newVectorJoinOperator(ctx *Context, node *planner.Join, left, right Operator) Operator {
	lo, ro := node.Left.Outputs(), node.Right.Outputs()
	lt := make([]*types.Type, len(lo))
	for i, c := range lo {
		lt[i] = c.Type
	}
	rt := make([]*types.Type, len(ro))
	rightKinds := make([]vector.Kind, len(ro))
	for i, c := range ro {
		rt[i] = c.Type
		rightKinds[i] = vector.KindOf(c.Type)
	}
	keyKinds := make([]vector.Kind, len(node.LeftKeys))
	for i, ch := range node.LeftKeys {
		keyKinds[i] = vector.KindOf(lt[ch])
	}
	o := &vectorJoinOperator{
		node:       node,
		left:       left,
		right:      right,
		mem:        newOpMem("the build side of a join", ctx),
		leftTypes:  lt,
		rightTypes: rt,
		rightKinds: rightKinds,
		keyKinds:   keyKinds,
		rowViews:   newViews(len(ro)),
		insViews:   make([]*vector.View, len(node.RightKeys)),
		keyViews:   newViews(len(node.LeftKeys)),
	}
	o.resetStore()
	return o
}

// resetStore replaces the build store with an empty one.
func (o *vectorJoinOperator) resetStore() {
	o.cols = make([]*vector.Column, len(o.rightTypes))
	for i, t := range o.rightTypes {
		o.cols[i] = vector.NewColumn(t)
	}
	keyCols := make([]*vector.Column, len(o.node.RightKeys))
	for i, ch := range o.node.RightKeys {
		keyCols[i] = o.cols[ch]
	}
	o.jt = vector.NewJoinTable(keyCols)
	o.rows = 0
}

// appendBuild compacts one build page into the store and indexes it.
func (o *vectorJoinOperator) appendBuild(p *block.Page) error {
	n := p.Count()
	if cap(o.hashes) < n {
		o.hashes = make([]uint64, n)
	}
	hashes := o.hashes[:n]
	o.hasher.HashPage(p, o.node.RightKeys, hashes)
	for c, col := range o.cols {
		if err := viewOf(p.Blocks[c], o.rightKinds[c], n, o.rowViews[c]); err != nil {
			return err
		}
		col.Append(o.rowViews[c], n)
	}
	for i, ch := range o.node.RightKeys {
		o.insViews[i] = o.rowViews[ch]
	}
	o.jt.Insert(o.insViews, n, hashes, o.rows)
	o.rows += n
	return nil
}

// build consumes the build side into the store, charging retained bytes as
// it grows. The first refused reservation switches to multi-pass mode.
func (o *vectorJoinOperator) build() error {
	for {
		p, err := o.right.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return err
		}
		if p.Count() == 0 {
			continue
		}
		if o.spilled {
			if err := o.bufferPage(p, &o.buildSpill, "join-build"); err != nil {
				return err
			}
			continue
		}
		before := o.rows
		if err := o.appendBuild(p); err != nil {
			return err
		}
		held := o.jt.Bytes()
		for _, col := range o.cols {
			held += col.Bytes()
		}
		delta := held - o.charged
		o.charged = held
		ok, err := o.mem.reserve(delta)
		if err != nil {
			return err
		}
		if !ok {
			// The store as it was before p — which fit — becomes the first
			// build run; p and the rest of the build side are buffered as
			// pages from here on.
			o.spilled = true
			if err := o.spillStore(before); err != nil {
				return err
			}
			if err := o.bufferPage(p, &o.buildSpill, "join-build"); err != nil {
				return err
			}
		}
	}
	if o.spilled {
		// The leftover buffered pages become the last run: the multi-pass
		// phase hard-reserves one full chunk at a time, so entering it with
		// build pages still charged would double-count against the cap that
		// just forced the spill.
		if err := o.spillPages(&o.buildSpill, "join-build"); err != nil {
			return err
		}
		return o.bufferProbe()
	}
	return nil
}

// spillStore writes the store's first rows rows out as one build run, then
// drops the store and its reservation.
func (o *vectorJoinOperator) spillStore(rows int) error {
	for from := 0; from < rows; from += spillPageRows {
		to := min(from+spillPageRows, rows)
		blocks := make([]block.Block, len(o.cols))
		for c, col := range o.cols {
			blocks[c] = col.Block(from, to)
		}
		o.buildSpill.pages = append(o.buildSpill.pages, &block.Page{Blocks: blocks, N: to - from})
	}
	o.resetStore()
	o.charged = 0
	o.mem.releaseAll()
	return o.spillPages(&o.buildSpill, "join-build")
}

// bufferPage holds p in s's memory, first spilling s's buffered pages to a
// run when its reservation is refused.
func (o *vectorJoinOperator) bufferPage(p *block.Page, s *pageStream, tag string) error {
	sz := int64(p.SizeBytes())
	ok, err := o.mem.reserve(sz)
	if err != nil {
		return err
	}
	if !ok {
		if err := o.spillPages(s, tag); err != nil {
			return err
		}
		if err := o.mem.hardReserve(sz); err != nil {
			return err
		}
	}
	s.pages = append(s.pages, p)
	s.bytes += sz
	return nil
}

// spillPages writes s's in-memory pages out as one run and frees their
// reservation.
func (o *vectorJoinOperator) spillPages(s *pageStream, tag string) error {
	if len(s.pages) == 0 {
		return nil
	}
	w, err := o.mem.newRun(tag)
	if err != nil {
		return err
	}
	for _, p := range s.pages {
		if err := w.WritePage(p); err != nil {
			w.Abandon()
			return o.mem.fail(err)
		}
	}
	run, err := w.Finish()
	if err != nil {
		return err
	}
	s.runs = append(s.runs, run)
	o.mem.addSpilled(run.Bytes())
	s.pages = s.pages[:0]
	o.mem.release(s.bytes)
	s.bytes = 0
	return nil
}

// bufferProbe consumes the whole probe side into a replayable stream,
// spilling under the same memory pressure as the build side. The leftovers
// go to disk too: chunk loading hard-reserves up to the full budget, so the
// probe stream is read back one page at a time per replay.
func (o *vectorJoinOperator) bufferProbe() error {
	for {
		p, err := o.left.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return err
		}
		if p.Count() == 0 {
			continue
		}
		if err := o.bufferPage(p, &o.probeSpill, "join-probe"); err != nil {
			return err
		}
	}
	return o.spillPages(&o.probeSpill, "join-probe")
}

func (o *vectorJoinOperator) Next() (*block.Page, error) {
	if !o.built {
		if err := o.build(); err != nil {
			return nil, err
		}
		o.built = true
	}
	if o.spilled {
		return o.spilledNext()
	}
	for {
		if o.probe != nil {
			out, err := o.nextBatch()
			if err != nil || out != nil {
				return out, err
			}
			p := o.probe
			o.probe = nil
			if o.node.Kind == planner.JoinLeft {
				if out := o.unmatchedPage(p, 0); out != nil {
					return out, nil
				}
			}
			continue
		}
		p, err := o.left.Next()
		if err != nil {
			return nil, err
		}
		if p.Count() == 0 {
			continue
		}
		if n := p.Count(); o.node.Kind == planner.JoinLeft {
			if cap(o.matched) < n {
				o.matched = make([]bool, n)
			}
			o.matched = o.matched[:n]
			clear(o.matched)
		}
		if err := o.startProbe(p, 0); err != nil {
			return nil, err
		}
	}
}

// spilledNext drives the multi-pass join: one replay of the probe stream per
// build chunk, then (for LEFT joins) a final replay emitting unmatched rows.
func (o *vectorJoinOperator) spilledNext() (*block.Page, error) {
	for {
		if o.probe != nil {
			out, err := o.nextBatch()
			if err != nil || out != nil {
				return out, err
			}
			o.probe = nil
		}
		if o.probeIter != nil {
			p, err := o.probeIter.next()
			if err == nil {
				base := o.probeBase
				o.probeBase += p.Count()
				o.growMatched(base + p.Count())
				if o.finalLeft {
					if out := o.unmatchedPage(p, base); out != nil {
						return out, nil
					}
					continue
				}
				if err := o.startProbe(p, base); err != nil {
					return nil, err
				}
				continue
			}
			if !errors.Is(err, io.EOF) {
				return nil, err
			}
			if cerr := o.probeIter.close(); cerr != nil {
				return nil, cerr
			}
			o.probeIter = nil
			o.probeBase = 0
			o.releaseChunk()
			if o.finalLeft {
				return nil, io.EOF
			}
		}
		ok, err := o.loadNextChunk()
		if err != nil {
			return nil, err
		}
		if !ok {
			if o.node.Kind == planner.JoinLeft && !o.finalLeft {
				o.finalLeft = true
				o.probeIter = o.probeSpill.iter()
				continue
			}
			return nil, io.EOF
		}
		o.probeIter = o.probeSpill.iter()
	}
}

func (o *vectorJoinOperator) growMatched(n int) {
	if o.node.Kind != planner.JoinLeft || n <= len(o.matched) {
		return
	}
	o.matched = append(o.matched, make([]bool, n-len(o.matched))...)
}

// loadNextChunk loads the next spilled build run back into the store (with
// a hard reservation of its pages' size, removed once read). Reports false
// when no chunks remain.
func (o *vectorJoinOperator) loadNextChunk() (bool, error) {
	for o.chunkIdx < len(o.buildSpill.runs) {
		run := o.buildSpill.runs[o.chunkIdx]
		o.chunkIdx++
		rr, err := run.Open()
		if err != nil {
			return false, err
		}
		o.resetStore()
		var bytes int64
		for {
			p, err := rr.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err == nil {
				sz := int64(p.SizeBytes())
				if err = o.mem.hardReserve(sz); err == nil {
					bytes += sz
					err = o.appendBuild(p)
				}
			}
			if err != nil {
				o.mem.release(bytes)
				return false, errors.Join(err, rr.Close())
			}
		}
		if err := rr.Close(); err != nil {
			o.mem.release(bytes)
			return false, err
		}
		run.Remove()
		o.chunkBytes = bytes
		if o.rows == 0 {
			o.releaseChunk()
			continue
		}
		return true, nil
	}
	return false, nil
}

// releaseChunk frees the chunk loaded by loadNextChunk.
func (o *vectorJoinOperator) releaseChunk() {
	o.mem.release(o.chunkBytes)
	o.chunkBytes = 0
	o.resetStore()
}

// startProbe hashes probe page p (rows base.. of the probe stream) and
// positions the bounded probe at its first row.
func (o *vectorJoinOperator) startProbe(p *block.Page, base int) error {
	n := p.Count()
	if cap(o.hashes) < n {
		o.hashes = make([]uint64, n)
	}
	o.hasher.HashPage(p, o.node.LeftKeys, o.hashes[:n])
	for i, ch := range o.node.LeftKeys {
		if err := viewOf(p.Blocks[ch], o.keyKinds[i], n, o.keyViews[i]); err != nil {
			return err
		}
	}
	o.probe, o.base, o.cur, o.probeDone = p, base, vector.ProbeCursor{}, false
	return nil
}

// nextBatch returns the next non-empty joined batch of the probe page in
// flight, or nil once the page is exhausted.
func (o *vectorJoinOperator) nextBatch() (*block.Page, error) {
	p, n := o.probe, o.probe.Count()
	for !o.probeDone {
		sel, rows, done := o.jt.Probe(o.keyViews, n, o.hashes[:n], &o.cur, max(n, joinBatchRows), o.probeSel[:0], o.buildRows[:0])
		o.probeSel, o.buildRows, o.probeDone = sel, rows, done
		if len(sel) == 0 {
			continue
		}
		nl := len(o.leftTypes)
		blocks := make([]block.Block, nl+len(o.cols))
		for c := 0; c < nl; c++ {
			blocks[c] = p.Blocks[c].Mask(sel)
		}
		for c, col := range o.cols {
			blocks[nl+c] = col.Gather(rows)
		}
		out := &block.Page{Blocks: blocks, N: len(sel)}
		if o.node.Residual != nil {
			keep, err := expr.EvalFilterInto(o.node.Residual, out, o.keep)
			if err != nil {
				return nil, err
			}
			o.keep = keep
			if len(keep) < len(sel) {
				out = out.Mask(keep)
				for i, k := range keep {
					sel[i] = sel[k]
				}
				sel = sel[:len(keep)]
			}
		}
		if o.node.Kind == planner.JoinLeft {
			for _, r := range sel {
				o.matched[o.base+r] = true
			}
		}
		if len(sel) > 0 {
			return out, nil
		}
	}
	return nil, nil
}

// unmatchedPage null-extends the rows of probe page p (rows base.. of the
// probe stream) that matched nothing, or returns nil when all matched.
func (o *vectorJoinOperator) unmatchedPage(p *block.Page, base int) *block.Page {
	sel := o.unmatched[:0]
	for r := 0; r < p.Count(); r++ {
		if !o.matched[base+r] {
			sel = append(sel, r)
		}
	}
	o.unmatched = sel
	if len(sel) == 0 {
		return nil
	}
	nl := len(o.leftTypes)
	blocks := make([]block.Block, nl+len(o.cols))
	for c := 0; c < nl; c++ {
		blocks[c] = p.Blocks[c].Mask(sel)
	}
	for c, t := range o.rightTypes {
		blocks[nl+c] = vector.NullBlock(t, len(sel))
	}
	return &block.Page{Blocks: blocks, N: len(sel)}
}

func (o *vectorJoinOperator) Close() error {
	var errs []error
	if o.probeIter != nil {
		errs = append(errs, o.probeIter.close())
		o.probeIter = nil
	}
	for _, s := range []*pageStream{&o.buildSpill, &o.probeSpill} {
		for _, r := range s.runs {
			r.Remove()
		}
	}
	o.mem.releaseAll()
	errs = append(errs, o.left.Close(), o.right.Close())
	return errors.Join(errs...)
}

// pageStream is a replayable page sequence split between spilled runs and
// in-memory pages (runs first — they hold the earlier input, preserving the
// original order); bytes is the reservation its in-memory pages hold.
type pageStream struct {
	runs  []*resource.Run
	pages []*block.Page
	bytes int64
}

func (s *pageStream) iter() *streamIter { return &streamIter{s: s} }

// streamIter walks a pageStream, holding one spilled page at a time. The
// read-back page is transient engine overhead (one bounded frame), not user
// memory — charging it against the cap that forced the spill would deadlock
// the replay. Runs are not removed — the stream is replayed per chunk.
type streamIter struct {
	s      *pageStream
	runIdx int
	rr     *resource.RunReader
	memIdx int
}

func (it *streamIter) next() (*block.Page, error) {
	for it.runIdx < len(it.s.runs) {
		if it.rr == nil {
			rr, err := it.s.runs[it.runIdx].Open()
			if err != nil {
				return nil, err
			}
			it.rr = rr
		}
		p, err := it.rr.Next()
		if errors.Is(err, io.EOF) {
			if cerr := it.rr.Close(); cerr != nil {
				return nil, cerr
			}
			it.rr = nil
			it.runIdx++
			continue
		}
		if err != nil {
			return nil, err
		}
		return p, nil
	}
	if it.memIdx < len(it.s.pages) {
		p := it.s.pages[it.memIdx]
		it.memIdx++
		return p, nil
	}
	return nil, io.EOF
}

func (it *streamIter) close() error {
	if it.rr != nil {
		err := it.rr.Close()
		it.rr = nil
		return err
	}
	return nil
}
