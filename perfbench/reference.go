package main

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"

	"searchspace/internal/model"
)

// referencePath is the committed answer file, relative to the
// repository root the benchmark runs from.
const referencePath = "perfbench/testdata/reference.json"

// refSpace is the committed answer for one Table 2 space. Canonical is
// computed from a chain-of-trees build (see reference_test.go), so it
// shares no code with the optimized solver the benchmark times.
// Ordered, where present, is the optimized single-worker record of the
// repository's golden enumeration suite (testdata/golden_enum.json),
// which also pins the emission order.
type refSpace struct {
	Name      string `json:"name"`
	Rows      int    `json:"rows"`
	Canonical string `json:"canonical_sha256"`
	Ordered   string `json:"ordered_sha256,omitempty"`
}

type reference struct {
	Scheme string     `json:"scheme"`
	Spaces []refSpace `json:"spaces"`
}

func loadReference(path string) (map[string]refSpace, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read reference: %w", err)
	}
	var ref reference
	if err := json.Unmarshal(raw, &ref); err != nil {
		return nil, fmt.Errorf("parse reference %s: %w", path, err)
	}
	out := make(map[string]refSpace, len(ref.Spaces))
	for _, s := range ref.Spaces {
		out[s.Name] = s
	}
	return out, nil
}

// checkSpace compares one built space with its reference answer. The
// ordered checksum is used when the reference has one (it is cheaper
// and also pins row order); otherwise the canonical one.
func checkSpace(want refSpace, def *model.Definition, cols [][]int32) error {
	rows := 0
	if len(cols) > 0 {
		rows = len(cols[0])
	}
	if rows != want.Rows {
		return fmt.Errorf("%s: %d rows, reference has %d", want.Name, rows, want.Rows)
	}
	if want.Ordered != "" {
		if got := orderedChecksum(def, cols, nil); got != want.Ordered {
			return fmt.Errorf("%s: enumeration checksum %s, reference has %s", want.Name, got, want.Ordered)
		}
		return nil
	}
	got, err := canonicalChecksum(def, cols)
	if err != nil {
		return err
	}
	if got != want.Canonical {
		return fmt.Errorf("%s: canonical checksum %s, reference has %s", want.Name, got, want.Canonical)
	}
	return nil
}

// orderedChecksum is the scheme of the repository's golden enumeration
// suite: parameter names in definition order, each NUL-terminated, then
// every column's domain indices as little-endian uint32, column by
// column. With order set, row r of every column is read from row
// order[r].
func orderedChecksum(def *model.Definition, cols [][]int32, order []int32) string {
	h := sha256.New()
	for _, p := range def.Params {
		h.Write([]byte(p.Name))
		h.Write([]byte{0})
	}
	buf := make([]byte, 0, 64<<10)
	for _, col := range cols {
		for r, di := range col {
			if order != nil {
				di = col[order[r]]
			}
			buf = binary.LittleEndian.AppendUint32(buf, uint32(di))
			if len(buf) == cap(buf) {
				h.Write(buf)
				buf = buf[:0]
			}
		}
	}
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil))
}

// canonicalChecksum is orderedChecksum over the rows re-sorted
// lexicographically by domain index in declaration order, so every
// construction method's output of one space hashes alike whatever order
// it emits rows in.
func canonicalChecksum(def *model.Definition, cols [][]int32) (string, error) {
	stride := make([]int64, len(cols))
	size := 1.0
	for p := len(cols) - 1; p >= 0; p-- {
		stride[p] = int64(size)
		size *= float64(len(def.Params[p].Values))
	}
	if size > math.MaxInt64/2 {
		return "", fmt.Errorf("%s: cartesian size %.3g too large to rank rows", def.Name, size)
	}
	type ranked struct {
		rank int64
		row  int32
	}
	var rows []ranked
	if len(cols) > 0 {
		rows = make([]ranked, len(cols[0]))
	}
	for p, col := range cols {
		for r, di := range col {
			rows[r].rank += int64(di) * stride[p]
			rows[r].row = int32(r)
		}
	}
	slices.SortFunc(rows, func(a, b ranked) int { return cmp.Compare(a.rank, b.rank) })
	order := make([]int32, len(rows))
	for i, r := range rows {
		order[i] = r.row
	}
	return orderedChecksum(def, cols, order), nil
}
