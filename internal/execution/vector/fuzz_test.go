package vector

// Fuzz harnesses for the open-addressing hash tables and the
// selection-vector filter kernels. Each target decodes the fuzz input into
// batched operations, runs them through the vectorized structure, and
// checks every observable result against a straightforward reference
// (a Go map, or the boxed block.Value path). The `dampen` selector shrinks
// the stored hash space down to a handful of values, forcing the collision
// and slot-growth paths that random 64-bit hashes would almost never take.
//
// Seed corpus lives in testdata/fuzz/<Target>/; CI runs each target briefly
// (make fuzz-smoke), and `go test -fuzz=<Target> ./internal/execution/vector/`
// digs deeper locally.

import (
	"reflect"
	"testing"

	"prestolite/internal/block"
	"prestolite/internal/types"
)

// fuzzDampens are the stored-hash masks a fuzz input can select: production
// (all bits), pathological (every key collides), and two small spaces.
var fuzzDampens = []uint64{^uint64(0), 0, 0x7, 0x3f}

// fuzzKeyMode is the key shape a table fuzz input runs with, selected by
// (selector/4)%3 so the original corpus (selectors 0-3) keeps its meaning.
type fuzzKeyMode int

const (
	fuzzBigintKey fuzzKeyMode = iota // one flat BIGINT key column
	fuzzBoxedKey                     // one ARRAY(BIGINT) key column (KindBoxed)
	fuzzNoKey                        // no key columns at all
)

func fuzzMode(d uint8) fuzzKeyMode { return fuzzKeyMode(d / 4 % 3) }

// fuzzKey is the reference identity of one decoded key: a small int64
// domain with deliberate duplicates, plus NULL (byte ≥ 0xf0).
type fuzzKey struct {
	null bool
	v    int64
}

// decodeKeys turns a chunk of fuzz bytes into a flat BIGINT block and the
// matching reference keys.
func decodeKeys(chunk []byte) (*block.Int64Block, []fuzzKey) {
	n := len(chunk)
	vals := make([]int64, n)
	var nulls []bool
	keys := make([]fuzzKey, n)
	for i, b := range chunk {
		if b >= 0xf0 {
			if nulls == nil {
				nulls = make([]bool, n)
			}
			nulls[i] = true
			keys[i] = fuzzKey{null: true}
			continue
		}
		v := int64(b%61) - 7
		vals[i] = v
		keys[i] = fuzzKey{v: v}
	}
	return &block.Int64Block{Values: vals, Nulls: nulls}, keys
}

// fuzzArrayType is the boxed key type: key v is the array [v, v%3].
var fuzzArrayType = types.NewArray(types.Bigint)

// decodeBatch decodes one batch of keys in the given mode into the page the
// hasher reads and the key views the table reads.
func decodeBatch(mode fuzzKeyMode, chunk []byte) (*block.Page, []*View, []fuzzKey) {
	flat, keys := decodeKeys(chunk)
	n := len(chunk)
	switch mode {
	case fuzzNoKey:
		return &block.Page{N: n}, nil, keys
	case fuzzBoxedKey:
		vals := make([]any, n)
		for i, k := range keys {
			if !k.null {
				vals[i] = []any{k.v, k.v % 3}
			}
		}
		blk := block.FromValues(fuzzArrayType, vals...)
		view := &View{}
		Box(blk, n, view)
		return block.NewPage(blk), []*View{view}, keys
	default:
		view := &View{}
		if !Of(flat, view) {
			panic("no view over flat int64")
		}
		return block.NewPage(flat), []*View{view}, keys
	}
}

// keyTypes is the table's key schema in mode.
func (m fuzzKeyMode) keyTypes() []*types.Type {
	switch m {
	case fuzzNoKey:
		return nil
	case fuzzBoxedKey:
		return []*types.Type{fuzzArrayType}
	default:
		return []*types.Type{types.Bigint}
	}
}

// pageKeys are the hash channels of a decoded batch.
func (m fuzzKeyMode) pageKeys() []int {
	if m == fuzzNoKey {
		return nil
	}
	return []int{0}
}

// FuzzGroupTable drives GroupTable.Assign through random key streams —
// duplicates, NULL keys, forced hash collisions, slot growth past the
// initial 64, and Reset (the post-spill rebuild) — over a BIGINT key, a
// boxed ARRAY key, or no key at all, checking the key→id mapping against a
// map: same key, same dense id; new key, next id; stored keys round-trip
// through KeyValues. A keyless table is the global aggregation: every row
// is group 0.
func FuzzGroupTable(f *testing.F) {
	f.Add(uint8(0), []byte{1, 2, 3, 1, 2, 3, 0xf0})
	f.Add(uint8(1), []byte("collide-all-hashes-through-equality"))
	f.Add(uint8(2), []byte{0, 61, 122, 0xff, 0, 61, 122}) // dup values, then Reset
	f.Add(uint8(5), []byte{1, 2, 3, 1, 0xf0, 0xf1, 0xff, 3})
	f.Add(uint8(8), []byte{1, 2, 0xff, 0xff, 3})
	f.Fuzz(func(t *testing.T, d uint8, data []byte) {
		if len(data) > 4096 {
			data = data[:4096]
		}
		mode := fuzzMode(d)
		gt := NewGroupTable(mode.keyTypes())
		gt.dampen = fuzzDampens[int(d)%len(fuzzDampens)]
		ref := map[fuzzKey]int32{}
		var hasher Hasher
		for len(data) > 0 {
			if data[0] == 0xff { // spill boundary: drop all state, rebuild
				gt.Reset()
				ref = map[fuzzKey]int32{}
				data = data[1:]
				continue
			}
			n := min(len(data), 32)
			page, views, keys := decodeBatch(mode, data[:n])
			data = data[n:]
			hashes := make([]uint64, n)
			hasher.HashPage(page, mode.pageKeys(), hashes)
			ids := make([]int32, n)
			for i := range ids {
				ids[i] = -1 // Assign must write every id (callers reuse scratch)
			}
			gt.Assign(views, n, hashes, ids)
			for i, k := range keys {
				if mode == fuzzNoKey {
					k = fuzzKey{}
				}
				if want, seen := ref[k]; seen {
					if ids[i] != want {
						t.Fatalf("key %v: got id %d, want %d", k, ids[i], want)
					}
				} else {
					if int(ids[i]) != len(ref) {
						t.Fatalf("new key %v: got id %d, want next dense id %d", k, ids[i], len(ref))
					}
					ref[k] = ids[i]
				}
			}
			if gt.Len() != len(ref) {
				t.Fatalf("table has %d groups, reference %d", gt.Len(), len(ref))
			}
		}
		if mode == fuzzNoKey {
			return
		}
		// Stored keys must round-trip: group g's key is the one that was
		// assigned id g.
		inv := make(map[int32]fuzzKey, len(ref))
		for k, g := range ref {
			inv[g] = k
		}
		dst := make([]any, 1)
		for g := 0; g < gt.Len(); g++ {
			gt.KeyValues(g, dst)
			k := inv[int32(g)]
			var want any
			switch {
			case k.null:
			case mode == fuzzBoxedKey:
				want = []any{k.v, k.v % 3}
			default:
				want = k.v
			}
			if !reflect.DeepEqual(dst[0], want) {
				t.Fatalf("group %d: stored %v, want %v", g, dst[0], want)
			}
		}
	})
}

// fuzzProbeLimits are the per-call pair bounds a join fuzz input can select
// with (selector/12)%4: unbounded, one pair, and two small batch sizes that
// split chains mid-way.
var fuzzProbeLimits = []int{1 << 30, 1, 7, 64}

// FuzzJoinTable drives JoinTable.Insert/Probe through random build and
// probe streams — duplicate keys chained through next, NULL keys on both
// sides (never matching), forced collisions and slot growth, probes resumed
// across bounded batches — over a BIGINT key, a boxed ARRAY key, or no key
// (the cartesian product), checking the matched pairs against a map from
// key to build-row set.
func FuzzJoinTable(f *testing.F) {
	f.Add(uint8(0), []byte{1, 2, 3, 1}, []byte{1, 4, 0xf0})
	f.Add(uint8(1), []byte("same-hash-different-keys"), []byte("probe-it-all"))
	f.Add(uint8(17), []byte{1, 1, 1, 2, 0xf0}, []byte{1, 2, 0xf1})
	f.Add(uint8(32), []byte{1, 0xf0, 3}, []byte{9, 0xf0})
	f.Fuzz(func(t *testing.T, d uint8, buildData, probeData []byte) {
		mode := fuzzMode(d)
		maxLen := 2048
		if mode == fuzzNoKey {
			maxLen = 256 // every pair matches: keep the product small
		}
		if len(buildData) > maxLen {
			buildData = buildData[:maxLen]
		}
		if len(probeData) > maxLen {
			probeData = probeData[:maxLen]
		}
		limit := fuzzProbeLimits[int(d/12)%len(fuzzProbeLimits)]
		var keyCols []*Column
		for _, kt := range mode.keyTypes() {
			keyCols = append(keyCols, NewColumn(kt))
		}
		jt := NewJoinTable(keyCols)
		jt.dampen = fuzzDampens[int(d)%len(fuzzDampens)]
		// ref maps a key to its build rows; a keyless table has one key.
		ref := map[fuzzKey]map[int32]bool{}
		var hasher Hasher
		base := 0
		for len(buildData) > 0 {
			n := min(len(buildData), 32)
			page, views, keys := decodeBatch(mode, buildData[:n])
			buildData = buildData[n:]
			hashes := make([]uint64, n)
			hasher.HashPage(page, mode.pageKeys(), hashes)
			for c, col := range keyCols {
				col.Append(views[c], n)
			}
			jt.Insert(views, n, hashes, base)
			for i, k := range keys {
				if mode == fuzzNoKey {
					k = fuzzKey{}
				} else if k.null {
					continue
				}
				if ref[k] == nil {
					ref[k] = map[int32]bool{}
				}
				ref[k][int32(base+i)] = true
			}
			base += n
		}
		for len(probeData) > 0 {
			n := min(len(probeData), 32)
			page, views, keys := decodeBatch(mode, probeData[:n])
			probeData = probeData[n:]
			hashes := make([]uint64, n)
			hasher.HashPage(page, mode.pageKeys(), hashes)
			got := make([]map[int32]bool, n)
			var cur ProbeCursor
			for done := false; !done; {
				var probeSel []int
				var buildRows []int32
				probeSel, buildRows, done = jt.Probe(views, n, hashes, &cur, limit, nil, nil)
				if len(probeSel) > limit || len(buildRows) != len(probeSel) {
					t.Fatalf("probe batch of %d/%d pairs, limit %d", len(probeSel), len(buildRows), limit)
				}
				for i, r := range probeSel {
					if got[r] == nil {
						got[r] = map[int32]bool{}
					}
					if got[r][buildRows[i]] {
						t.Fatalf("probe row %d matched build row %d twice", r, buildRows[i])
					}
					got[r][buildRows[i]] = true
				}
			}
			for r, k := range keys {
				if mode == fuzzNoKey {
					k = fuzzKey{}
				}
				var want map[int32]bool
				if !k.null {
					want = ref[k]
				}
				if len(got[r]) != len(want) {
					t.Fatalf("probe row %d (key %v): %d matches, want %d", r, k, len(got[r]), len(want))
				}
				for row := range want {
					if !got[r][row] {
						t.Fatalf("probe row %d (key %v): missing build row %d", r, k, row)
					}
				}
			}
		}
	})
}

// fuzzBoolBlock decodes shape+data into a boolean block in one of the
// physical encodings SelectTrue special-cases.
func fuzzBoolBlock(shape uint8, data []byte, n int) block.Block {
	switch shape % 4 {
	case 0: // flat, no nulls
		vals := make([]bool, n)
		for i := range vals {
			vals[i] = data[i]&1 == 1
		}
		return &block.BoolBlock{Values: vals}
	case 1: // flat with nulls
		vals := make([]bool, n)
		nulls := make([]bool, n)
		for i := range vals {
			vals[i] = data[i]&1 == 1
			nulls[i] = data[i]&2 == 2
		}
		return &block.BoolBlock{Values: vals, Nulls: nulls}
	case 2: // dictionary over {true, false}, ids with -1 nulls
		ids := make([]int32, n)
		for i := range ids {
			if data[i]&2 == 2 {
				ids[i] = -1
			} else {
				ids[i] = int32(data[i] & 1)
			}
		}
		return &block.DictionaryBlock{
			Dictionary: &block.BoolBlock{Values: []bool{true, false}},
			Ids:        ids,
		}
	default: // run-length: all-true, all-false or all-null
		var v any
		if data[0]&2 == 0 {
			v = data[0]&1 == 1
		}
		return block.NewRunLengthBlock(block.SingleValue(types.Boolean, v), n)
	}
}

// FuzzSelectTrue checks the WHERE-clause selection kernel against the boxed
// block.Value reference over every boolean encoding: selected positions are
// exactly the rows whose value is true and non-null.
func FuzzSelectTrue(f *testing.F) {
	f.Add(uint8(0), []byte{1, 0, 1, 3, 2})
	f.Add(uint8(2), []byte{0, 1, 2, 3, 0, 1})
	f.Add(uint8(3), []byte{1})
	f.Fuzz(func(t *testing.T, shape uint8, data []byte) {
		if len(data) == 0 {
			return
		}
		if len(data) > 4096 {
			data = data[:4096]
		}
		n := len(data)
		blk := fuzzBoolBlock(shape, data, n)
		var view View
		if !Of(blk, &view) {
			t.Fatal("no view over boolean block")
		}
		sel := SelectTrue(&view, n, nil)
		var want []int
		for r := 0; r < n; r++ {
			if v, ok := blk.Value(r).(bool); ok && v {
				want = append(want, r)
			}
		}
		if len(sel) != len(want) {
			t.Fatalf("selected %d rows, want %d", len(sel), len(want))
		}
		for i := range sel {
			if sel[i] != want[i] {
				t.Fatalf("position %d: selected row %d, want %d", i, sel[i], want[i])
			}
		}
	})
}

// fuzzInt64Block decodes shape+data into a BIGINT block in one of the
// encodings SelectConst special-cases (flat / dictionary / run-length, with
// and without nulls).
func fuzzInt64Block(shape uint8, data []byte, n int) block.Block {
	switch shape % 4 {
	case 0: // flat, no nulls
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64(data[i]%31) - 15
		}
		return &block.Int64Block{Values: vals}
	case 1: // flat with nulls
		blk, _ := decodeKeys(data[:n])
		return blk
	case 2: // dictionary
		ids := make([]int32, n)
		for i := range ids {
			if data[i] >= 0xf0 {
				ids[i] = -1
			} else {
				ids[i] = int32(data[i] % 8)
			}
		}
		return &block.DictionaryBlock{
			Dictionary: &block.Int64Block{Values: []int64{-3, 0, 1, 2, 2, 5, 8, 13}},
			Ids:        ids,
		}
	default: // run-length
		var v any
		if data[0] < 0xf0 {
			v = int64(data[0]%31) - 15
		}
		return block.NewRunLengthBlock(block.SingleValue(types.Bigint, v), n)
	}
}

// FuzzSelectConst checks the typed comparison selection kernels against the
// boxed reference across operators, encodings, NULLs and constants: the
// selection vector holds exactly the non-null rows whose comparison with
// the constant is true.
func FuzzSelectConst(f *testing.F) {
	f.Add(uint8(0), uint8(2), int64(0), []byte{1, 5, 9, 200, 13})
	f.Add(uint8(2), uint8(0), int64(2), []byte{0, 1, 2, 3, 4, 0xf0})
	f.Add(uint8(3), uint8(5), int64(-3), []byte{7, 7})
	f.Fuzz(func(t *testing.T, shape, opByte uint8, c int64, data []byte) {
		if len(data) == 0 {
			return
		}
		if len(data) > 4096 {
			data = data[:4096]
		}
		n := len(data)
		blk := fuzzInt64Block(shape, data, n)
		var view View
		if !Of(blk, &view) {
			t.Fatal("no view over bigint block")
		}
		op := CmpOp(opByte % 6)
		var flt Filter
		sel, ok := flt.SelectConst(&view, n, op, c, nil)
		if !ok {
			t.Fatalf("SelectConst rejected int64 constant for kind %v", view.Kind)
		}
		var want []int
		for r := 0; r < n; r++ {
			if v, okv := blk.Value(r).(int64); okv && cmpOrd(op, v, c) {
				want = append(want, r)
			}
		}
		if len(sel) != len(want) {
			t.Fatalf("op %s const %d: selected %d rows, want %d", op.Name(), c, len(sel), len(want))
		}
		for i := range sel {
			if sel[i] != want[i] {
				t.Fatalf("op %s const %d, position %d: row %d, want %d", op.Name(), c, i, sel[i], want[i])
			}
		}
	})
}
