package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"searchspace"
)

// buildSnapshot constructs the all-kinds test space with the given
// method and wraps it as a snapshot, the way the service does.
func buildSnapshot(t testing.TB, m searchspace.Method) *Snapshot {
	t.Helper()
	p := searchspace.NewProblem("codec-roundtrip")
	p.AddParam("block", 1, 2, 4, 8, 16, 32)
	p.AddParam("scale", 0.5, 1.0, 2.0, 2.5)
	p.AddParam("vectorize", true, false)
	p.AddParam("layout", "row", "col", "tiled")
	p.AddConstraint("block * scale <= 32")
	p.AddConstraint("vectorize or block >= 4")
	ss, stats, err := p.BuildTimed(m)
	if err != nil {
		t.Fatalf("build with %s: %v", m, err)
	}
	return &Snapshot{
		Def:    p.Definition(),
		Method: m,
		Stats:  stats,
		Bounds: ss.TrueBounds(),
		Space:  ss,
	}
}

// sameSpace asserts that two materialized spaces answer identically:
// size, names, every row's values, and membership through the row
// index.
func sameSpace(t *testing.T, want, got *searchspace.SearchSpace) {
	t.Helper()
	if got.Size() != want.Size() {
		t.Fatalf("size %d, want %d", got.Size(), want.Size())
	}
	wantNames, gotNames := want.Names(), got.Names()
	if len(wantNames) != len(gotNames) {
		t.Fatalf("param count %d, want %d", len(gotNames), len(wantNames))
	}
	for i := range wantNames {
		if wantNames[i] != gotNames[i] {
			t.Fatalf("param %d = %q, want %q", i, gotNames[i], wantNames[i])
		}
	}
	for r := 0; r < want.Size(); r++ {
		wv, gv := want.GetValues(r), got.GetValues(r)
		for i := range wv {
			if wv[i] != gv[i] {
				t.Fatalf("row %d param %d = %v (%T), want %v (%T)", r, i, gv[i], gv[i], wv[i], wv[i])
			}
		}
		if idx, ok := got.IndexOf(want.Get(r)); !ok || idx != r {
			t.Fatalf("membership of row %d: got (%d,%v), want (%d,true)", r, idx, ok, r)
		}
	}
}

// TestRoundTripEveryMethod pins that encode→decode is identity for a
// space mixing every value kind (int, float, bool, string), for every
// construction method — the persisted form must be method-agnostic so
// a restored space is indistinguishable from a built one.
func TestRoundTripEveryMethod(t *testing.T) {
	for _, m := range searchspace.Methods() {
		t.Run(m.String(), func(t *testing.T) {
			snap := buildSnapshot(t, m)
			raw, err := EncodeBytes(snap)
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			got, err := DecodeBytes(raw)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if got.Method != m {
				t.Errorf("method %v, want %v", got.Method, m)
			}
			if got.Stats != snap.Stats {
				t.Errorf("stats %+v, want %+v", got.Stats, snap.Stats)
			}
			if got.Def.Name != snap.Def.Name {
				t.Errorf("name %q, want %q", got.Def.Name, snap.Def.Name)
			}
			if len(got.Bounds) != len(snap.Bounds) {
				t.Fatalf("bounds count %d, want %d", len(got.Bounds), len(snap.Bounds))
			}
			for i := range snap.Bounds {
				if got.Bounds[i] != snap.Bounds[i] {
					t.Errorf("bounds[%d] = %+v, want %+v", i, got.Bounds[i], snap.Bounds[i])
				}
			}
			sameSpace(t, snap.Space, got.Space)
		})
	}
}

// TestRoundTripEmptySpace covers the over-constrained edge: zero valid
// rows must encode and restore cleanly.
func TestRoundTripEmptySpace(t *testing.T) {
	p := searchspace.NewProblem("empty")
	p.AddParam("x", 1, 2, 3)
	p.AddConstraint("x > 5")
	ss, stats, err := p.BuildTimed(searchspace.Optimized)
	if err != nil {
		t.Fatal(err)
	}
	snap := &Snapshot{Def: p.Definition(), Method: searchspace.Optimized,
		Stats: stats, Bounds: ss.TrueBounds(), Space: ss}
	raw, err := EncodeBytes(snap)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.Space.Size() != 0 {
		t.Fatalf("size %d, want 0", got.Space.Size())
	}
}

// widthsSnapshot builds a space with one parameter at each cell width
// (0, 1, 2 and 4 bytes: domains of 1, 4, 300 and 65,537 values), kept
// small by its constraints.
func widthsSnapshot(t testing.TB) *Snapshot {
	t.Helper()
	wide := make([]any, 1<<16+1)
	for i := range wide {
		wide[i] = i
	}
	mid := make([]any, 300)
	for i := range mid {
		mid[i] = i * 3
	}
	p := searchspace.NewProblem("cell-widths")
	p.AddParam("fixed", 7)
	p.AddParam("small", 1, 2, 3, 4)
	p.AddParam("mid", mid...)
	p.AddParam("wide", wide...)
	p.AddConstraint("mid % 150 == 0 or mid == 897")
	p.AddConstraint("wide <= 2 or wide >= 65535")
	p.AddConstraint("small * fixed <= 21")
	ss, stats, err := p.BuildTimed(searchspace.Optimized)
	if err != nil {
		t.Fatal(err)
	}
	return &Snapshot{Def: p.Definition(), Method: searchspace.Optimized,
		Stats: stats, Bounds: ss.TrueBounds(), Space: ss}
}

// TestRoundTripCellWidths pins the version-6 cell block: every width
// round-trips, including the top index of the 2- and 4-byte domains
// (299 and 65,536), and the block is exactly rows x (0+1+2+4) bytes.
func TestRoundTripCellWidths(t *testing.T) {
	snap := widthsSnapshot(t)
	rows := snap.Space.Size()
	if rows != 3*7*5 {
		t.Fatalf("test space has %d rows, want 105", rows)
	}
	raw, err := EncodeBytes(snap)
	if err != nil {
		t.Fatal(err)
	}
	prefix, err := encodePrefix(snap)
	if err != nil {
		t.Fatal(err)
	}
	if want := headerBytes + len(prefix) + rows*(0+1+2+4) + sha256.Size; len(raw) != want {
		t.Fatalf("blob is %d bytes, want %d", len(raw), want)
	}
	got, err := DecodeBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Space.Columns(), snap.Space.Columns()) {
		t.Fatal("columns changed across encode/decode")
	}
	sameSpace(t, snap.Space, got.Space)
}

// TestCellWidth pins the version-6 width boundaries: each width holds
// every index of its largest domain and no more.
func TestCellWidth(t *testing.T) {
	for domain, want := range map[int]int{1: 0, 2: 1, 1 << 8: 1, 1<<8 + 1: 2, 1 << 16: 2, 1<<16 + 1: 4, 1 << 26: 4} {
		if got := cellWidth(domain); got != want {
			t.Errorf("cellWidth(%d) = %d, want %d", domain, got, want)
		}
	}
}

// TestEncodeRefusesOutOfDomainCell: a cell that does not fit its
// parameter's domain must fail the encode, never be narrowed into a
// different, valid-looking index. A 4-byte cell holds any index, so
// there the decoder's domain check is what refuses it.
func TestEncodeRefusesOutOfDomainCell(t *testing.T) {
	for p, bad := range []int32{1, 4 + 256, 300 + 65536, -1} {
		snap := widthsSnapshot(t)
		snap.Space.Columns()[p][0] = bad
		raw, err := EncodeBytes(snap)
		if p < 3 {
			if err == nil {
				t.Errorf("column %d: index %d encoded without error", p, bad)
			}
			continue
		}
		if err != nil {
			t.Fatalf("column %d: %v", p, err)
		}
		if _, err := DecodeBytes(raw); !errors.Is(err, ErrCorrupt) {
			t.Errorf("column %d: index %d decoded with %v, want ErrCorrupt", p, bad, err)
		}
	}
}

// TestDecodeRefusesOutOfDomainCell: a checksum-valid blob carrying one
// cell outside its parameter's domain must be ErrCorrupt naming the
// parameter and the row, at every cell width, and through the store a
// miss that quarantines the blob. The 4-byte cell 0x80000000 reads back
// as a negative int32, so it pins that the check is unsigned.
func TestDecodeRefusesOutOfDomainCell(t *testing.T) {
	const row = 57
	// setCell rewrites one cell of a version-6 widthsSnapshot blob and
	// re-stamps it. The cell block starts after the prefix, column by
	// column: "small" at 1 byte a cell, "mid" at 2, "wide" at 4.
	setCell := func(col string, index uint32) []byte {
		snap := widthsSnapshot(t)
		raw, err := EncodeBytes(snap)
		if err != nil {
			t.Fatal(err)
		}
		prefix, err := encodePrefix(snap)
		if err != nil {
			t.Fatal(err)
		}
		rows := snap.Space.Size()
		payload := raw[headerBytes : len(raw)-sha256.Size]
		cells := payload[len(prefix):]
		switch col {
		case "small":
			cells[row] = byte(index)
		case "mid":
			binary.LittleEndian.PutUint16(cells[rows+2*row:], uint16(index))
		case "wide":
			binary.LittleEndian.PutUint32(cells[3*rows+4*row:], index)
		}
		return stamp(Version, payload)
	}
	legacy := buildSnapshot(t, searchspace.Optimized)
	legacy.Space.Columns()[0][row] = math.MinInt32 // 0x80000000 as a 4-byte cell
	cases := []struct {
		name, param string
		blob        []byte
	}{
		{"1-byte", "small", setCell("small", 4)},
		{"2-byte", "mid", setCell("mid", 300)},
		{"4-byte", "wide", setCell("wide", 1<<16+1)},
		{"4-byte-sign-bit", "wide", setCell("wide", 0x80000000)},
		{"v5-sign-bit", "block", legacyBlob(t, legacy, 5)},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeBytes(tc.blob)
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("DecodeBytes: %v, want ErrCorrupt", err)
			}
			if want := fmt.Sprintf("column %q row %d:", tc.param, row); !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not name %s", err, want)
			}
			dir := t.TempDir()
			id := testID(i)
			if err := os.WriteFile(filepath.Join(dir, id+snapSuffix), tc.blob, 0o644); err != nil {
				t.Fatal(err)
			}
			s, err := Open(Config{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Get(id); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Store.Get: %v, want ErrNotFound", err)
			}
			if st := s.Stats(); st.Quarantined != 1 || st.Misses != 1 {
				t.Errorf("store stats %+v, want one miss and the blob quarantined", st)
			}
			if _, err := os.Stat(filepath.Join(dir, id+corruptSuffix)); err != nil {
				t.Errorf("no quarantined file: %v", err)
			}
		})
	}
}

// TestGoConstraintsNotEncodable: closures have no canonical byte form.
func TestGoConstraintsNotEncodable(t *testing.T) {
	p := searchspace.NewProblem("native")
	p.AddParam("x", 1, 2, 3)
	p.AddConstraintFunc([]string{"x"}, func(args []any) bool { return args[0].(int64) > 1 })
	ss, stats, err := p.BuildTimed(searchspace.Optimized)
	if err != nil {
		t.Fatal(err)
	}
	snap := &Snapshot{Def: p.Definition(), Method: searchspace.Optimized,
		Stats: stats, Bounds: ss.TrueBounds(), Space: ss}
	if _, err := EncodeBytes(snap); err == nil {
		t.Fatal("encoding a definition with Go constraints should fail")
	}
}

// TestDecodeDamagedBlob proves quarantine-not-crash material: every
// truncation point and a sweep of single-bit flips must produce an
// error (almost always ErrCorrupt) and never a panic or a silently
// wrong space.
func TestDecodeDamagedBlob(t *testing.T) {
	snap := buildSnapshot(t, searchspace.Optimized)
	raw, err := EncodeBytes(snap)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeBytes(raw); err != nil {
		t.Fatalf("pristine blob must decode: %v", err)
	}

	t.Run("truncated", func(t *testing.T) {
		// Every prefix of the blob is a truncation some crashed writer or
		// torn download could produce.
		step := 1
		if len(raw) > 4096 {
			step = len(raw) / 4096
		}
		for n := 0; n < len(raw); n += step {
			if _, err := DecodeBytes(raw[:n]); err == nil {
				t.Fatalf("truncation to %d of %d bytes decoded successfully", n, len(raw))
			}
		}
	})

	t.Run("bitflip", func(t *testing.T) {
		rng := rand.New(rand.NewSource(7))
		flips := 256
		for i := 0; i < flips; i++ {
			mut := append([]byte(nil), raw...)
			pos := rng.Intn(len(mut))
			mut[pos] ^= 1 << uint(rng.Intn(8))
			got, err := DecodeBytes(mut)
			if err == nil {
				// The only undetectable flip would be a sha256 collision;
				// a successful decode here means the flip landed on a byte
				// the format ignores, which the format does not have.
				t.Fatalf("bit flip at byte %d decoded successfully (size %d)", pos, got.Space.Size())
			}
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) {
				t.Fatalf("bit flip at byte %d: error %v is neither ErrCorrupt nor ErrVersion", pos, err)
			}
		}
	})

	t.Run("trailing-garbage", func(t *testing.T) {
		if _, err := DecodeBytes(append(append([]byte(nil), raw...), 0xFF)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("trailing garbage: %v, want ErrCorrupt", err)
		}
	})

	t.Run("overflow-row-count", func(t *testing.T) {
		// Checksum-VALID blobs claiming 2^62 rows with no column data.
		// With one one-value parameter every cell is width 0 in version
		// 6, so no data is missing and only the cartesian bound stands
		// between the claim and a panicking column allocation. With 62
		// two-value parameters the cartesian product admits 2^62 rows,
		// and rows times the row width wraps: without the explicit
		// bound the size check passes. Both must be a plain ErrCorrupt.
		for _, tc := range []struct {
			params, values int
			version        uint16
		}{{1, 1, Version}, {1, 1, 5}, {62, 2, Version}, {62, 2, 5}} {
			blob := stamp(tc.version, claimRows(tc.params, tc.values, 1<<62))
			if _, err := DecodeBytes(blob); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%d params of %d values, version %d: %v, want ErrCorrupt",
					tc.params, tc.values, tc.version, err)
			}
		}
	})

	t.Run("counts-beyond-payload", func(t *testing.T) {
		// Checksum-valid payloads whose parameter, value or constraint
		// count claims 2^20 entries with no bytes behind them. Each must
		// be ErrCorrupt without allocating for the claim (tens of MB
		// each if the counts were trusted).
		var params, values, cons bytes.Buffer
		for _, b := range []*bytes.Buffer{&params, &values, &cons} {
			str(b, "optimized")
			str(b, "evil")
		}
		le32(&params, 1<<20)
		le32(&values, 1)
		str(&values, "x")
		le32(&values, 1<<20)
		le32(&cons, 1)
		str(&cons, "x")
		le32(&cons, 1)
		cons.WriteByte(kindInt)
		le64(&cons, 1)
		le32(&cons, 1<<20)
		for name, payload := range map[string][]byte{"params": params.Bytes(), "values": values.Bytes(), "constraints": cons.Bytes()} {
			blob := stamp(Version, payload)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := DecodeBytes(blob)
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s: %v, want ErrCorrupt", name, err)
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
				t.Errorf("%s: decoding a %d-byte blob allocated %d bytes", name, len(blob), alloc)
			}
		}
	})

	t.Run("huge-declared-length", func(t *testing.T) {
		// A header whose length field declares 2^37 payload bytes in
		// front of 64 bytes: one flipped bit in a real blob's length
		// does this. Decoding must read what is there and call it
		// truncated, not allocate what the header claims.
		blob := append([]byte(nil), magic[:]...)
		blob = binary.LittleEndian.AppendUint16(blob, Version)
		blob = binary.LittleEndian.AppendUint64(blob, 1<<37)
		blob = append(blob, make([]byte, 64)...)
		if _, err := DecodeBytes(blob); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("DecodeBytes: %v, want ErrCorrupt", err)
		}
		// And through the store, which must quarantine it.
		s, err := Open(Config{Dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		id := testID(7)
		if err := os.WriteFile(s.path(id), blob, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err = Open(Config{Dir: s.Dir()})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Get(id); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Store.Get: %v, want ErrNotFound", err)
		}
		if s.Stats().Quarantined != 1 {
			t.Fatalf("store stats %+v, want the blob quarantined", s.Stats())
		}
	})

	t.Run("future-version", func(t *testing.T) {
		mut := append([]byte(nil), raw...)
		mut[6] = 0xFF // version low byte
		if _, err := DecodeBytes(mut); !errors.Is(err, ErrVersion) {
			t.Fatalf("future version: %v, want ErrVersion", err)
		}
	})
}

// legacyBlob renders snap the way a binary of format version v (1 to
// 5) wrote it: the header fields that version had, then every cell as
// a little-endian int32. It is written independently of the current
// encoder, and TestDecodeVersion5Fixture pins its version-5 output to
// bytes the version-5 encoder itself produced.
func legacyBlob(t *testing.T, snap *Snapshot, v uint16) []byte {
	t.Helper()
	var b bytes.Buffer
	str(&b, snap.Method.String())
	str(&b, snap.Def.Name)
	le32(&b, uint32(len(snap.Def.Params)))
	for _, p := range snap.Def.Params {
		str(&b, p.Name)
		le32(&b, uint32(len(p.Values)))
		for _, val := range p.Values {
			if err := encodeValue(&b, val); err != nil {
				t.Fatal(err)
			}
		}
	}
	le32(&b, uint32(len(snap.Def.Constraints)))
	for _, c := range snap.Def.Constraints {
		str(&b, c)
	}
	le64(&b, uint64(snap.Stats.Duration))
	le64(&b, math.Float64bits(snap.Stats.Cartesian))
	le64(&b, uint64(snap.Stats.Valid))
	if v >= 2 {
		le32(&b, uint32(snap.Stats.Workers))
	}
	if v >= 3 {
		le64(&b, uint64(snap.Stats.Nodes))
	}
	if v >= 4 {
		le64(&b, uint64(snap.Stats.Blocks))
	}
	if v >= 5 {
		str(&b, snap.ParentID)
	}
	le32(&b, uint32(len(snap.Bounds)))
	for _, bd := range snap.Bounds {
		str(&b, bd.Name)
		le64(&b, math.Float64bits(bd.Min))
		le64(&b, math.Float64bits(bd.Max))
		boolByte(&b, bd.Numeric)
		le32(&b, uint32(bd.DistinctValues))
	}
	le64(&b, uint64(snap.Space.Size()))
	for _, col := range snap.Space.Columns() {
		for _, di := range col {
			le32(&b, uint32(di))
		}
	}
	return stamp(v, b.Bytes())
}

// stamp frames a payload as a blob of format version v: header,
// payload, and its SHA-256.
func stamp(v uint16, payload []byte) []byte {
	var blob bytes.Buffer
	blob.Write(magic[:])
	le16(&blob, v)
	le64(&blob, uint64(len(payload)))
	blob.Write(payload)
	sum := sha256.Sum256(payload)
	blob.Write(sum[:])
	return blob.Bytes()
}

// fixtureDuration is the build time frozen into testdata/v5.snap, so
// its stats are comparable in full.
const fixtureDuration = 1234567 * time.Nanosecond

// TestDecodeVersion5Fixture pins backward compatibility against bytes
// the version-5 encoder wrote (testdata/v5.snap, the all-kinds test
// space built by the optimized method, frozen before the cell layout
// changed): they must decode to the same definition, stats, bounds and
// columns a fresh build gives, and legacyBlob must reproduce them
// exactly, which is what makes the version-1 to 4 tests below honest.
func TestDecodeVersion5Fixture(t *testing.T) {
	raw, err := os.ReadFile("testdata/v5.snap")
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint16(raw[6:8]); v != 5 {
		t.Fatalf("fixture is version %d, want 5", v)
	}
	got, err := DecodeBytes(raw)
	if err != nil {
		t.Fatalf("decoding the v5 fixture: %v", err)
	}
	want := buildSnapshot(t, searchspace.Optimized)
	want.Stats.Duration = fixtureDuration
	pinned := searchspace.BuildStats{Method: searchspace.Optimized, Duration: fixtureDuration,
		Cartesian: 144, Valid: 102, Workers: 1, Nodes: 101, Blocks: 34}
	if got.Stats != pinned {
		t.Errorf("stats %+v, want %+v", got.Stats, pinned)
	}
	if got.Method != searchspace.Optimized || got.ParentID != "" {
		t.Errorf("method %v parent %q, want optimized and no parent", got.Method, got.ParentID)
	}
	if !reflect.DeepEqual(got.Def, want.Def) {
		t.Errorf("definition %+v, want %+v", got.Def, want.Def)
	}
	if !reflect.DeepEqual(got.Bounds, want.Bounds) {
		t.Errorf("bounds %+v, want %+v", got.Bounds, want.Bounds)
	}
	if !reflect.DeepEqual(got.Space.Columns(), want.Space.Columns()) {
		t.Error("columns differ from a fresh build's")
	}
	sameSpace(t, want.Space, got.Space)
	if !bytes.Equal(legacyBlob(t, got, 5), raw) {
		t.Error("legacyBlob(5) does not reproduce the v5 fixture byte for byte")
	}
}

// claimRows is a payload for params integer parameters of values
// values each, no constraints, and a consistent claim of rows rows,
// with no column data after the row count.
func claimRows(params, values int, rows uint64) []byte {
	var p bytes.Buffer
	str(&p, "optimized")
	str(&p, "evil")
	le32(&p, uint32(params))
	for i := 0; i < params; i++ {
		str(&p, fmt.Sprintf("x%d", i))
		le32(&p, uint32(values))
		for v := 0; v < values; v++ {
			p.WriteByte(kindInt)
			le64(&p, uint64(v))
		}
	}
	le32(&p, 0)                               // no constraints
	le64(&p, 0)                               // duration
	le64(&p, math.Float64bits(math.Exp2(62))) // cartesian
	le64(&p, rows)                            // valid
	le32(&p, 0)                               // workers
	le64(&p, 0)                               // nodes
	le64(&p, 0)                               // blocks
	str(&p, "")                               // parent
	le32(&p, uint32(params))                  // bounds
	for i := 0; i < params; i++ {
		str(&p, fmt.Sprintf("x%d", i))
		le64(&p, math.Float64bits(0))
		le64(&p, math.Float64bits(float64(values-1)))
		boolByte(&p, true)
		le32(&p, uint32(values))
	}
	le64(&p, rows) // row count, no column data follows
	return p.Bytes()
}

// TestDecodeVersion1Blob pins backward compatibility: a version-1 blob
// (written before the parallel engine existed, so no workers field)
// must still decode, reporting Workers 1 — the sequential path those
// builds actually ran.
func TestDecodeVersion1Blob(t *testing.T) {
	snap := buildSnapshot(t, searchspace.Optimized)
	got, err := DecodeBytes(legacyBlob(t, snap, 1))
	if err != nil {
		t.Fatalf("decoding a v1 blob: %v", err)
	}
	if got.Stats.Workers != 1 {
		t.Errorf("v1 blob decoded with Workers %d, want 1", got.Stats.Workers)
	}
	if got.Stats.Nodes != 0 {
		t.Errorf("v1 blob decoded with Nodes %d, want 0 (stat postdates v1)", got.Stats.Nodes)
	}
	if got.Stats.Valid != snap.Stats.Valid || got.Stats.Duration != snap.Stats.Duration {
		t.Errorf("v1 stats %+v, want (modulo workers) %+v", got.Stats, snap.Stats)
	}
	sameSpace(t, snap.Space, got.Space)
}

// TestDecodeVersion2Blob pins backward compatibility one version back:
// a version-2 blob (written before the enumeration kernel recorded
// node visits, so no nodes field) must still decode, reporting the
// recorded workers and Nodes 0.
func TestDecodeVersion2Blob(t *testing.T) {
	snap := buildSnapshot(t, searchspace.Optimized)
	got, err := DecodeBytes(legacyBlob(t, snap, 2))
	if err != nil {
		t.Fatalf("decoding a v2 blob: %v", err)
	}
	if got.Stats.Workers != snap.Stats.Workers {
		t.Errorf("v2 blob decoded with Workers %d, want %d", got.Stats.Workers, snap.Stats.Workers)
	}
	if got.Stats.Nodes != 0 {
		t.Errorf("v2 blob decoded with Nodes %d, want 0 (stat postdates v2)", got.Stats.Nodes)
	}
	sameSpace(t, snap.Space, got.Space)
}

// TestDecodeVersion3Blob pins backward compatibility with a version-3
// blob (written before the block breakdown existed): it must still
// decode, keeping the recorded nodes and reporting Blocks 0.
func TestDecodeVersion3Blob(t *testing.T) {
	snap := buildSnapshot(t, searchspace.Optimized)
	got, err := DecodeBytes(legacyBlob(t, snap, 3))
	if err != nil {
		t.Fatalf("decoding a v3 blob: %v", err)
	}
	if got.Stats.Nodes != snap.Stats.Nodes {
		t.Errorf("v3 blob decoded with Nodes %d, want %d", got.Stats.Nodes, snap.Stats.Nodes)
	}
	if got.Stats.Blocks != 0 {
		t.Errorf("v3 blob decoded with Blocks %d, want 0 (stat postdates v3)", got.Stats.Blocks)
	}
	sameSpace(t, snap.Space, got.Space)
}

// TestDecodeVersion4Blob pins backward compatibility with a version-4
// blob (written before delta-built spaces recorded their parent): it
// must still decode, keeping the recorded blocks and reporting an
// empty ParentID.
func TestDecodeVersion4Blob(t *testing.T) {
	snap := buildSnapshot(t, searchspace.Optimized)
	snap.ParentID = "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"
	got, err := DecodeBytes(legacyBlob(t, snap, 4))
	if err != nil {
		t.Fatalf("decoding a v4 blob: %v", err)
	}
	if got.Stats.Blocks != snap.Stats.Blocks {
		t.Errorf("v4 blob decoded with Blocks %d, want %d", got.Stats.Blocks, snap.Stats.Blocks)
	}
	if got.ParentID != "" {
		t.Errorf("v4 blob decoded with ParentID %q, want empty (field postdates v4)", got.ParentID)
	}
	sameSpace(t, snap.Space, got.Space)
}

// TestParentIDRoundTrip pins the version-5 field: a snapshot recording
// its derivation keeps the parent id across encode/decode.
func TestParentIDRoundTrip(t *testing.T) {
	snap := buildSnapshot(t, searchspace.Optimized)
	snap.ParentID = "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"
	raw, err := EncodeBytes(snap)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.ParentID != snap.ParentID {
		t.Errorf("ParentID %q, want %q", got.ParentID, snap.ParentID)
	}
	sameSpace(t, snap.Space, got.Space)
}

// FuzzSnapshotDecode holds the decoder's contract on arbitrary input:
// a typed error (ErrCorrupt or ErrVersion) or a space whose every cell
// is an index into its parameter's domain, never a panic or an
// allocation the blob's own size does not justify. Each input is also tried re-framed with a matching length
// and checksum: a random mutation almost never survives the SHA-256,
// and the payload parser behind it is where counts turn into
// allocations.
func FuzzSnapshotDecode(f *testing.F) {
	fixture, err := os.ReadFile("testdata/v5.snap")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fixture)
	f.Fuzz(func(t *testing.T, raw []byte) {
		checkDecoded(t, raw)
		if len(raw) >= headerBytes {
			payload := raw[headerBytes:max(headerBytes, len(raw)-sha256.Size)]
			checkDecoded(t, stamp(binary.LittleEndian.Uint16(raw[6:8]), payload))
		}
	})
}

// checkDecoded asserts the decoder's contract on one input.
func checkDecoded(t *testing.T, raw []byte) {
	t.Helper()
	snap, err := DecodeBytes(raw)
	if err != nil {
		if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) {
			t.Fatalf("untyped error %v", err)
		}
		return
	}
	if snap.Space.Size() != snap.Stats.Valid {
		t.Fatalf("decoded %d rows, stats say %d", snap.Space.Size(), snap.Stats.Valid)
	}
	cols := snap.Space.Columns()
	if len(cols) != len(snap.Def.Params) {
		t.Fatalf("decoded %d columns for %d parameters", len(cols), len(snap.Def.Params))
	}
	for p, col := range cols {
		if len(col) != snap.Space.Size() {
			t.Fatalf("column %d has %d rows, space has %d", p, len(col), snap.Space.Size())
		}
		domain := len(snap.Def.Params[p].Values)
		for r, di := range col {
			if di < 0 || int(di) >= domain {
				t.Fatalf("column %d row %d: value index %d outside domain of %d", p, r, di, domain)
			}
		}
	}
}
