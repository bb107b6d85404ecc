// Package store implements the durable snapshot tier under the spaced
// registry: a versioned, checksummed binary codec for fully
// materialized search spaces, and a content-addressed on-disk blob
// store with atomic writes, a byte-budget GC, and corruption-tolerant
// loading. The paper's economics motivate it directly — construction is
// the expensive step, so a built space is an asset worth keeping: with
// this tier, registry eviction demotes to disk instead of discarding
// solver work, and a daemon restart warm-starts from the blobs instead
// of rebuilding.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"searchspace"
	"searchspace/internal/model"
	"searchspace/internal/value"
)

// Snapshot is everything needed to serve a previously built space
// without re-running a solver: the definition, the construction method
// and its original build stats, the precomputed true bounds, and the
// materialized space itself (whose columnar row data is what the codec
// persists).
type Snapshot struct {
	Def    *model.Definition
	Method searchspace.Method
	Stats  searchspace.BuildStats
	Bounds []searchspace.ParamBounds
	Space  *searchspace.SearchSpace
	// ParentID, when non-empty, is the content address of the cached
	// superset this space was delta-built (restricted) from; "" for
	// spaces constructed by a solver. Derivation metadata only — the
	// space's own content is complete either way.
	ParentID string
}

// Format: a fixed header, a length-prefixed payload, and a trailing
// SHA-256 of the payload.
//
//	magic   [6]byte  "ssnap\x00"
//	version uint16   little-endian; currently 6
//	length  uint64   payload bytes
//	payload []byte   see encodePrefix, then the cell block
//	sum     [32]byte SHA-256 of payload
//
// The payload is the definition, method, build stats, bounds and row
// count (encodePrefix), followed by the cells, column-major: each
// column's value indices at cellWidth bytes apiece, little-endian. The
// definition precedes the cells, so a decoder knows every column's
// width before it reaches them.
//
// Compatibility contract: the version is bumped on ANY payload layout
// change; a decoder accepts its own version and every older one it
// has migration code for. An unknown (newer) version is ErrVersion —
// a miss, not corruption — while a bad magic, truncation, or checksum
// mismatch is ErrCorrupt (quarantine it).
var magic = [6]byte{'s', 's', 'n', 'a', 'p', 0}

// Version is the current snapshot format version. Version 6 stores each
// column's cells at the width its domain needs (cellWidth) instead of
// as raw int32s: a Hotspot blob shrinks from 44 to 8 bytes per row.
// Version 5 added the parent space id for restrict-derived spaces after
// the block count (version-4 and older blobs report an empty ParentID —
// the delta-build path did not exist when they were written). Version 4
// added the kernel's emitted-block count after the node count
// (version-3 and older blobs report Blocks 0). Version 3 added the
// enumeration kernel's visited-node count after the worker count
// (version-2 and older blobs report Nodes 0 — the stat did not exist
// when they were written). Version 2 added the original build's worker
// count after the valid-size field; version-1 blobs still decode (their
// builds predate the parallel engine, so they report Workers 1, the
// sequential path they actually ran). Versions 1 to 5 store every cell
// as 4 bytes.
const Version uint16 = 6

// headerBytes is the size of the magic, version and length fields.
const headerBytes = 16

// maxPayloadBytes bounds a declared payload length so arithmetic on it
// cannot overflow. It sizes no allocation: DecodeBytes works on the
// bytes actually present.
const maxPayloadBytes = 1 << 38 // 256 GiB

// ErrCorrupt marks a blob that is structurally damaged (bad magic,
// truncated, checksum mismatch, or inconsistent content). The store
// quarantines such blobs; they are never served and never crash.
var ErrCorrupt = errors.New("store: corrupt snapshot")

// ErrVersion marks a blob in an unknown (likely newer) format version.
// It is valid content for some other binary, so it is a cache miss,
// not corruption — no quarantine. The miss makes the caller rebuild,
// and the rebuild's write-through MAY then replace the blob with a
// current-version encoding of the same space; that stays readable by
// the newer binary too, since decoders accept every version up to
// their own.
var ErrVersion = errors.New("store: unsupported snapshot version")

// cellWidth is the number of bytes a version-6 cell takes for a
// parameter with the given number of values: none when the only index
// is 0, then the narrowest of 1, 2 and 4 bytes that holds every index.
func cellWidth(domain int) int {
	switch {
	case domain <= 1:
		return 0
	case domain <= 1<<8:
		return 1
	case domain <= 1<<16:
		return 2
	}
	return 4
}

// Encode writes snap to w in the binary snapshot format.
func Encode(w io.Writer, snap *Snapshot) error {
	blob, err := EncodeBytes(snap)
	if err != nil {
		return err
	}
	_, err = w.Write(blob)
	return err
}

// EncodeBytes renders snap as one blob. The blob's size is known once
// the prefix is encoded, so it is allocated exactly once and the cells
// are narrowed straight into it.
func EncodeBytes(snap *Snapshot) ([]byte, error) {
	prefix, err := encodePrefix(snap)
	if err != nil {
		return nil, err
	}
	params := snap.Def.Params
	rows := snap.Space.Size()
	rowBytes := 0
	for _, p := range params {
		rowBytes += cellWidth(len(p.Values))
	}
	length := len(prefix) + rows*rowBytes
	blob := make([]byte, headerBytes+length+sha256.Size)
	copy(blob, magic[:])
	binary.LittleEndian.PutUint16(blob[6:], Version)
	binary.LittleEndian.PutUint64(blob[8:], uint64(length))
	payload := blob[headerBytes : headerBytes+length]
	cells := payload[copy(payload, prefix):]
	for p, col := range snap.Space.Columns() {
		w := cellWidth(len(params[p].Values))
		if err := narrow(cells[:rows*w], col[:rows], w, len(params[p].Values)); err != nil {
			return nil, fmt.Errorf("store: parameter %q: %w", params[p].Name, err)
		}
		cells = cells[rows*w:]
	}
	sum := sha256.Sum256(payload)
	copy(blob[headerBytes+length:], sum[:])
	return blob, nil
}

// narrow writes col's value indices into dst at w bytes each. An index
// outside the domain is refused rather than truncated, so a narrowed
// cell can never decode to a different value than the one encoded.
func narrow(dst []byte, col []int32, w, domain int) error {
	dom := uint32(domain)
	switch w {
	case 0:
		for r, di := range col {
			if di != 0 {
				return fmt.Errorf("row %d: value index %d outside domain of %d", r, di, domain)
			}
		}
	case 1:
		dst = dst[:len(col)]
		for r, di := range col {
			if uint32(di) >= dom {
				return fmt.Errorf("row %d: value index %d outside domain of %d", r, di, domain)
			}
			dst[r] = byte(di)
		}
	case 2:
		for r, di := range col {
			if uint32(di) >= dom {
				return fmt.Errorf("row %d: value index %d outside domain of %d", r, di, domain)
			}
			binary.LittleEndian.PutUint16(dst[2*r:], uint16(di))
		}
	default:
		for r, di := range col {
			binary.LittleEndian.PutUint32(dst[4*r:], uint32(di))
		}
	}
	return nil
}

// DecodeBytes parses one snapshot blob, verifying the checksum before
// trusting any payload bytes and fully validating the content
// (definition, method, every cell against its domain) before
// materializing the space. Every failure mode is an error — never a
// panic — so a hostile or bit-flipped blob degrades to a cache miss. It
// decodes in place: nothing is allocated on the strength of the
// declared length, so a length field claiming more than raw holds is a
// truncation, not an out-of-memory crash. Trailing garbage is rejected.
func DecodeBytes(raw []byte) (*Snapshot, error) {
	payload, version, err := verifyBlob(raw)
	if err != nil {
		return nil, err
	}
	snap, err := decodePayload(payload, version)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return snap, nil
}

// verifyBlob checks a blob's framing — magic, version, declared length
// against the bytes present — and its checksum, and returns the
// payload it vouches for.
func verifyBlob(raw []byte) ([]byte, uint16, error) {
	if len(raw) < headerBytes {
		return nil, 0, fmt.Errorf("%w: short header: %d bytes", ErrCorrupt, len(raw))
	}
	if !bytes.Equal(raw[:6], magic[:]) {
		return nil, 0, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	version := binary.LittleEndian.Uint16(raw[6:8])
	if version == 0 || version > Version {
		return nil, 0, fmt.Errorf("%w: version %d (this binary reads 1..%d)", ErrVersion, version, Version)
	}
	length := binary.LittleEndian.Uint64(raw[8:16])
	if length > maxPayloadBytes {
		return nil, 0, fmt.Errorf("%w: declared payload of %d bytes", ErrCorrupt, length)
	}
	body := uint64(len(raw) - headerBytes)
	switch {
	case body < length:
		return nil, 0, fmt.Errorf("%w: truncated payload: %d of %d bytes", ErrCorrupt, body, length)
	case body < length+sha256.Size:
		return nil, 0, fmt.Errorf("%w: missing checksum", ErrCorrupt)
	case body > length+sha256.Size:
		return nil, 0, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, body-length-sha256.Size)
	}
	payload := raw[headerBytes : headerBytes+length]
	if sha256.Sum256(payload) != [sha256.Size]byte(raw[headerBytes+length:]) {
		return nil, 0, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return payload, version, nil
}

// encodePrefix lowers everything before the cell block: the method,
// the definition, the build stats, the bounds, and the row count. All
// integers are little-endian; strings are u32-length-prefixed UTF-8;
// floats are IEEE-754 bits (so ±Inf bound sentinels survive, which JSON
// could not carry).
func encodePrefix(snap *Snapshot) ([]byte, error) {
	def := snap.Def
	if def == nil || snap.Space == nil {
		return nil, fmt.Errorf("store: snapshot needs a definition and a space")
	}
	if len(def.GoConstraints) > 0 {
		// Same rule as the wire codec: a closure has no canonical byte
		// form, so it cannot be persisted or content-addressed.
		return nil, fmt.Errorf("store: definition %q has native Go constraint functions; only string constraints are persistable", def.Name)
	}
	cols := snap.Space.Columns()
	if len(cols) != len(def.Params) {
		return nil, fmt.Errorf("store: space has %d columns for %d parameters", len(cols), len(def.Params))
	}
	var b bytes.Buffer
	str(&b, snap.Method.String())
	str(&b, def.Name)
	le32(&b, uint32(len(def.Params)))
	for _, p := range def.Params {
		str(&b, p.Name)
		le32(&b, uint32(len(p.Values)))
		for _, v := range p.Values {
			if err := encodeValue(&b, v); err != nil {
				return nil, fmt.Errorf("store: parameter %q: %w", p.Name, err)
			}
		}
	}
	le32(&b, uint32(len(def.Constraints)))
	for _, c := range def.Constraints {
		str(&b, c)
	}
	le64(&b, uint64(snap.Stats.Duration))
	le64(&b, math.Float64bits(snap.Stats.Cartesian))
	le64(&b, uint64(snap.Stats.Valid))
	le32(&b, uint32(snap.Stats.Workers)) // since version 2
	le64(&b, uint64(snap.Stats.Nodes))   // since version 3
	le64(&b, uint64(snap.Stats.Blocks))  // since version 4
	str(&b, snap.ParentID)               // since version 5
	le32(&b, uint32(len(snap.Bounds)))
	for _, bd := range snap.Bounds {
		str(&b, bd.Name)
		le64(&b, math.Float64bits(bd.Min))
		le64(&b, math.Float64bits(bd.Max))
		boolByte(&b, bd.Numeric)
		le32(&b, uint32(bd.DistinctValues))
	}
	le64(&b, uint64(snap.Space.Size()))
	return b.Bytes(), nil
}

// decodePayload parses and validates a payload of any supported
// version, ending with a materialized space. It trusts nothing: counts
// are sanity-bounded before allocation, the definition is re-validated,
// the method label must resolve, declared sizes must be internally
// consistent, and every cell is checked against its domain as it is
// widened.
func decodePayload(payload []byte, version uint16) (*Snapshot, error) {
	snap, cells, err := decodePrefix(payload, version)
	if err != nil {
		return nil, err
	}
	cols, err := cells.columns(snap.Def)
	if err != nil {
		return nil, err
	}
	if snap.Space, err = searchspace.FromColumns(snap.Def, cols); err != nil {
		return nil, err
	}
	return snap, nil
}

// cellBlock is the column data that follows a payload's prefix: rows
// cells per column, column p's at widths[p] bytes apiece, column-major.
// decodePrefix has already checked that data is exactly that long.
type cellBlock struct {
	data   []byte
	rows   int
	widths []int
}

// decodePrefix parses everything before the cell block into a snapshot
// without a space, and sizes the cell block against the definition.
func decodePrefix(payload []byte, version uint16) (*Snapshot, cellBlock, error) {
	d := &payloadReader{buf: payload}
	methodName := d.str()
	name := d.str()
	nParams := d.u32()
	if d.err != nil {
		return nil, cellBlock{}, d.err
	}
	// Each count is also held to the bytes left, at the fewest bytes
	// an entry can take, so no allocation outgrows the blob.
	if nParams > 1<<20 || uint64(nParams)*8 > d.left() {
		return nil, cellBlock{}, fmt.Errorf("implausible parameter count %d", nParams)
	}
	def := &model.Definition{Name: name, Params: make([]model.Param, nParams)}
	for i := range def.Params {
		pname := d.str()
		nVals := d.u32()
		if d.err != nil {
			return nil, cellBlock{}, d.err
		}
		if nVals > 1<<26 || uint64(nVals)*2 > d.left() {
			return nil, cellBlock{}, fmt.Errorf("implausible domain size %d for parameter %q", nVals, pname)
		}
		vals := make([]value.Value, nVals)
		for j := range vals {
			vals[j] = d.value()
		}
		def.Params[i] = model.Param{Name: pname, Values: vals}
	}
	nCons := d.u32()
	if d.err != nil {
		return nil, cellBlock{}, d.err
	}
	if nCons > 1<<20 || uint64(nCons)*4 > d.left() {
		return nil, cellBlock{}, fmt.Errorf("implausible constraint count %d", nCons)
	}
	def.Constraints = make([]string, nCons)
	for i := range def.Constraints {
		def.Constraints[i] = d.str()
	}
	duration := d.u64()
	cartesian := math.Float64frombits(d.u64())
	valid := d.u64()
	// Version-1 blobs predate the parallel engine; every build they
	// record ran the sequential path.
	workers := uint32(1)
	if version >= 2 {
		workers = d.u32()
	}
	// Version <= 2 blobs predate the node-visit stat; version <= 3
	// blobs predate the block breakdown.
	nodes := uint64(0)
	if version >= 3 {
		nodes = d.u64()
	}
	blocks := uint64(0)
	if version >= 4 {
		blocks = d.u64()
	}
	// Version <= 4 blobs predate delta-built spaces; none of them was
	// derived by restricting a cached superset.
	parentID := ""
	if version >= 5 {
		parentID = d.str()
	}
	nBounds := d.u32()
	if d.err != nil {
		return nil, cellBlock{}, d.err
	}
	if nBounds != nParams {
		return nil, cellBlock{}, fmt.Errorf("%d bounds for %d parameters", nBounds, nParams)
	}
	bounds := make([]searchspace.ParamBounds, nBounds)
	for i := range bounds {
		bounds[i] = searchspace.ParamBounds{
			Name:    d.str(),
			Min:     math.Float64frombits(d.u64()),
			Max:     math.Float64frombits(d.u64()),
			Numeric: d.boolByte(),
		}
		bounds[i].DistinctValues = int(d.u32())
	}
	rows := d.u64()
	if d.err != nil {
		return nil, cellBlock{}, d.err
	}
	if rows != valid {
		return nil, cellBlock{}, fmt.Errorf("row count %d disagrees with recorded valid size %d", rows, valid)
	}
	// Every cell is 4 bytes up to version 5; from version 6 a column's
	// width follows from its domain, which the definition above fixed.
	widths := make([]int, nParams)
	rowBytes := uint64(0)
	product := uint64(1) // of the domain sizes, saturating
	for p, param := range def.Params {
		widths[p] = 4
		if version >= 6 {
			widths[p] = cellWidth(len(param.Values))
		}
		rowBytes += uint64(widths[p])
		switch n := uint64(len(param.Values)); {
		case n == 0:
			product = 0
		case product > math.MaxUint64/n:
			product = math.MaxUint64
		default:
			product *= n
		}
	}
	remaining := d.left()
	switch {
	case nParams == 0:
		if rows != 0 || remaining != 0 {
			return nil, cellBlock{}, fmt.Errorf("parameterless snapshot claims %d rows with %d data bytes", rows, remaining)
		}
	case rows > product:
		// A space holds distinct configurations, so its rows cannot
		// outnumber the cartesian product. This is what bounds a blob
		// whose columns are all width 0: there, no amount of column data
		// is missing, and a checksum-valid 2^62-row claim would
		// otherwise panic the column allocation.
		return nil, cellBlock{}, fmt.Errorf("row count %d exceeds the %d configurations of the cartesian product", rows, product)
	case rowBytes > 0 && rows > remaining/rowBytes:
		// Also the overflow guard: rows*rowBytes wrapping around would
		// otherwise defeat the size check below.
		return nil, cellBlock{}, fmt.Errorf("row count %d exceeds the column data present", rows)
	}
	if need := rows * rowBytes; remaining != need {
		return nil, cellBlock{}, fmt.Errorf("column data is %d bytes, want %d", remaining, need)
	}
	method, ok := searchspace.MethodByName(methodName)
	if !ok {
		return nil, cellBlock{}, fmt.Errorf("unknown construction method %q", methodName)
	}
	snap := &Snapshot{
		Def:    def,
		Method: method,
		Stats: searchspace.BuildStats{
			Method:    method,
			Duration:  time.Duration(duration),
			Cartesian: cartesian,
			Valid:     int(valid),
			Workers:   int(workers),
			Nodes:     int64(nodes),
			Blocks:    int64(blocks),
		},
		Bounds:   bounds,
		ParentID: parentID,
	}
	return snap, cellBlock{data: d.bytes(int(remaining)), rows: int(rows), widths: widths}, nil
}

// columns widens the cell block into one column of value indices per
// parameter of def, checking every cell against its parameter's domain
// as it is written. Width-0 columns share one zero-filled backing.
// Columns are read-only once built, and sharing keeps what a restore
// allocates linear in the blob's size, however many one-value
// parameters the definition declares.
func (c cellBlock) columns(def *model.Definition) ([][]int32, error) {
	cols := make([][]int32, len(c.widths))
	var zeros []int32
	data := c.data
	for p, w := range c.widths {
		if w == 0 {
			if zeros == nil {
				zeros = make([]int32, c.rows)
			}
			cols[p] = zeros
			continue
		}
		param := def.Params[p]
		col, err := widen(data[:c.rows*w], w, len(param.Values))
		if err != nil {
			return nil, fmt.Errorf("column %q %w", param.Name, err)
		}
		cols[p] = col
		data = data[c.rows*w:]
	}
	return cols, nil
}

// widen decodes raw's cells of w (1, 2 or 4) bytes each into a column
// of value indices, refusing the first cell that is not an index into
// a domain of the given size. The comparison is unsigned, so a 4-byte
// cell of 2^31 or more (negative as an int32) is refused as well.
func widen(raw []byte, w, domain int) ([]int32, error) {
	col := make([]int32, len(raw)/w)
	dom := uint32(domain)
	switch w {
	case 1:
		raw = raw[:len(col)]
		for r, c := range raw {
			if uint32(c) >= dom {
				return nil, outsideDomain(r, uint32(c), domain)
			}
			col[r] = int32(c)
		}
	case 2:
		raw = raw[:2*len(col)]
		for r := range col {
			c := uint32(binary.LittleEndian.Uint16(raw[2*r:]))
			if c >= dom {
				return nil, outsideDomain(r, c, domain)
			}
			col[r] = int32(c)
		}
	default:
		raw = raw[:4*len(col)]
		for r := range col {
			c := binary.LittleEndian.Uint32(raw[4*r:])
			if c >= dom {
				return nil, outsideDomain(r, c, domain)
			}
			col[r] = int32(c)
		}
	}
	return col, nil
}

func outsideDomain(row int, index uint32, domain int) error {
	return fmt.Errorf("row %d: value index %d outside domain of %d", row, index, domain)
}

// kind tags for encoded values; distinct from value.Kind so the wire
// format stays stable even if the in-memory enum is reordered.
const (
	kindInt    byte = 1
	kindFloat  byte = 2
	kindBool   byte = 3
	kindString byte = 4
)

func encodeValue(b *bytes.Buffer, v value.Value) error {
	switch v.Kind() {
	case value.Int:
		b.WriteByte(kindInt)
		le64(b, uint64(v.Int()))
	case value.Float:
		b.WriteByte(kindFloat)
		le64(b, math.Float64bits(v.Float()))
	case value.Bool:
		b.WriteByte(kindBool)
		boolByte(b, v.Bool())
	case value.String:
		b.WriteByte(kindString)
		str(b, v.Str())
	default:
		return fmt.Errorf("unencodable value kind %v", v.Kind())
	}
	return nil
}

// payloadReader is a little-endian cursor that latches its first error
// so parse code reads linearly and checks d.err at section boundaries.
type payloadReader struct {
	buf []byte
	pos int
	err error
}

func (d *payloadReader) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *payloadReader) bytes(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.pos+n > len(d.buf) {
		d.fail("truncated at offset %d (want %d more bytes)", d.pos, n)
		return nil
	}
	out := d.buf[d.pos : d.pos+n]
	d.pos += n
	return out
}

// left is the number of unread bytes.
func (d *payloadReader) left() uint64 { return uint64(len(d.buf) - d.pos) }

func (d *payloadReader) u32() uint32 {
	raw := d.bytes(4)
	if raw == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(raw)
}

func (d *payloadReader) u64() uint64 {
	raw := d.bytes(8)
	if raw == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(raw)
}

func (d *payloadReader) boolByte() bool {
	raw := d.bytes(1)
	if raw == nil {
		return false
	}
	switch raw[0] {
	case 0:
		return false
	case 1:
		return true
	}
	d.fail("bad bool byte %d", raw[0])
	return false
}

func (d *payloadReader) str() string {
	n := d.u32()
	if n > 1<<26 {
		d.fail("implausible string length %d", n)
		return ""
	}
	return string(d.bytes(int(n)))
}

func (d *payloadReader) value() value.Value {
	raw := d.bytes(1)
	if raw == nil {
		return value.Value{}
	}
	switch raw[0] {
	case kindInt:
		return value.OfInt(int64(d.u64()))
	case kindFloat:
		return value.OfFloat(math.Float64frombits(d.u64()))
	case kindBool:
		return value.OfBool(d.boolByte())
	case kindString:
		return value.OfString(d.str())
	}
	d.fail("bad value kind tag %d", raw[0])
	return value.Value{}
}

func str(b *bytes.Buffer, s string) {
	le32(b, uint32(len(s)))
	b.WriteString(s)
}

func le16(b *bytes.Buffer, v uint16) {
	var raw [2]byte
	binary.LittleEndian.PutUint16(raw[:], v)
	b.Write(raw[:])
}

func le32(b *bytes.Buffer, v uint32) {
	var raw [4]byte
	binary.LittleEndian.PutUint32(raw[:], v)
	b.Write(raw[:])
}

func le64(b *bytes.Buffer, v uint64) {
	var raw [8]byte
	binary.LittleEndian.PutUint64(raw[:], v)
	b.Write(raw[:])
}

func boolByte(b *bytes.Buffer, v bool) {
	if v {
		b.WriteByte(1)
		return
	}
	b.WriteByte(0)
}
