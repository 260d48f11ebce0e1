package main

// Answer checking. A reply is reduced to a fingerprint: each row is rendered
// canonically (doubles to 9 significant digits, so the last-bit differences
// of a distributed sum do not count) and hashed; unordered results combine
// row hashes order-independently. The oracle is the embedded core.Engine with
// every cache off over the same generated catalogs.

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"
	"sync"

	"prestolite/internal/connectors/hive"
	"prestolite/internal/core"
)

// fingerprint is a reply's canonical digest plus its row count.
type fingerprint struct {
	Hash uint64
	Rows int
}

func renderValue(sb *strings.Builder, v any) {
	switch x := v.(type) {
	case nil:
		sb.WriteString("NULL")
	case float64:
		sb.WriteString(strconv.FormatFloat(x, 'g', 9, 64))
	case int64:
		sb.WriteString(strconv.FormatInt(x, 10))
	case string:
		sb.WriteString(strconv.Quote(x))
	case bool:
		sb.WriteString(strconv.FormatBool(x))
	case []any:
		sb.WriteByte('[')
		for i, e := range x {
			if i > 0 {
				sb.WriteByte(',')
			}
			renderValue(sb, e)
		}
		sb.WriteByte(']')
	default:
		fmt.Fprintf(sb, "%T:%v", v, v)
	}
}

func fingerprintRows(rows [][]any, ordered bool) fingerprint {
	var acc uint64
	var sb strings.Builder
	for _, row := range rows {
		sb.Reset()
		for _, v := range row {
			renderValue(&sb, v)
			sb.WriteByte('|')
		}
		h := fnv.New64a()
		h.Write([]byte(sb.String()))
		if ordered {
			acc = (acc ^ h.Sum64()) * 1099511628211
		} else {
			acc += h.Sum64() * 0x9E3779B97F4A7C15
		}
	}
	return fingerprint{Hash: acc, Rows: len(rows)}
}

// oracle answers statements on the embedded engine with all caches off.
type oracle struct {
	engine  *core.Engine
	catalog string
	schema  string

	mu   sync.Mutex
	memo map[string]fingerprint
}

func newOracle(d *dataset) (*oracle, error) {
	reg, err := d.catalogs(hooks{}, hive.Options{DisableChunkCache: true, DisableFileListCache: true, DisableFooterCache: true})
	if err != nil {
		return nil, err
	}
	e := core.New()
	for _, name := range reg.Catalogs() {
		conn, err := reg.Get(name)
		if err != nil {
			return nil, err
		}
		e.Register(name, conn)
	}
	cat, sch := d.session()
	return &oracle{engine: e, catalog: cat, schema: sch, memo: map[string]fingerprint{}}, nil
}

func (o *oracle) answer(st statement) (fingerprint, error) {
	o.mu.Lock()
	fp, ok := o.memo[st.SQL]
	o.mu.Unlock()
	if ok {
		return fp, nil
	}
	res, err := o.engine.Query(core.DefaultSession(o.catalog, o.schema), st.SQL)
	if err != nil {
		return fingerprint{}, fmt.Errorf("oracle: %s: %w", st.Class, err)
	}
	fp = fingerprintRows(res.Rows(), st.Ordered)
	o.mu.Lock()
	o.memo[st.SQL] = fp
	o.mu.Unlock()
	return fp, nil
}

// answerAll fills the memo for every statement, on two goroutines.
func (o *oracle) answerAll(sts []statement) error {
	work := make(chan statement)
	errs := make(chan error, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var first error
			for st := range work {
				if _, err := o.answer(st); err != nil && first == nil {
					first = err
				}
			}
			errs <- first
		}()
	}
	for _, st := range sts {
		work <- st
	}
	close(work)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// replies records the fingerprint of every reply, keyed by statement, for
// checking against the oracle once the measured window is over.
type replies struct {
	mu  sync.Mutex
	got map[string]map[fingerprint]int64
	st  map[string]statement
}

func newReplies() *replies {
	return &replies{got: map[string]map[fingerprint]int64{}, st: map[string]statement{}}
}

func (r *replies) add(st statement, fp fingerprint) {
	r.mu.Lock()
	m := r.got[st.SQL]
	if m == nil {
		m = map[fingerprint]int64{}
		r.got[st.SQL] = m
		r.st[st.SQL] = st
	}
	m[fp]++
	r.mu.Unlock()
}

func (r *replies) statements() []statement {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]statement, 0, len(r.st))
	for _, st := range r.st {
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SQL < out[j].SQL })
	return out
}

// verify compares every recorded reply with the oracle and returns the
// number of wrong replies plus a description of the first.
func (r *replies) verify(o *oracle) (int64, string, error) {
	if err := o.answerAll(r.statements()); err != nil {
		return 0, "", err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var wrong int64
	first := ""
	for sql, fps := range r.got {
		want, err := o.answer(r.st[sql])
		if err != nil {
			return 0, "", err
		}
		for fp, n := range fps {
			if fp != want {
				wrong += n
				if first == "" {
					first = fmt.Sprintf("%s: got %d rows (%x), want %d rows (%x): %s", r.st[sql].Class, fp.Rows, fp.Hash, want.Rows, want.Hash, sql)
				}
			}
		}
	}
	return wrong, first, nil
}
