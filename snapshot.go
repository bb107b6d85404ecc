package searchspace

import (
	"fmt"

	"searchspace/internal/core"
	"searchspace/internal/model"
	"searchspace/internal/space"
)

// This file is the stable encode/decode surface of a materialized
// SearchSpace: the columnar solver output is the complete resolved
// state (everything else — row index, bounds — is derivable),
// so (definition, columns) round-trips a space without re-running any
// solver. internal/store builds its binary snapshot format on exactly
// this pair.

// Definition returns the definition the space was resolved from. The
// returned value is shared with the SearchSpace; treat it as read-only.
func (ss *SearchSpace) Definition() *model.Definition { return ss.def }

// Columns returns the per-parameter domain-index columns of the
// resolved space: Columns()[p][r] is the index into parameter p's
// declared value list taken by configuration r. The slices are the
// space's own backing storage — callers must not mutate them.
func (ss *SearchSpace) Columns() [][]int32 { return ss.s.Columns() }

// FromColumns reconstructs a fully materialized SearchSpace from a
// definition and previously produced columns (for example a decoded
// snapshot) without running a solver; the columns are retained, not
// copied. Every column must be the same length, which FromColumns
// checks. Every cell must be a valid index into its parameter's
// declared values, which it does not check: Columns() output always
// is, and the snapshot decoder (internal/store) checks each cell as it
// reads it. Enumeration order — and therefore row indices, sampling, and
// neighbor answers — is exactly the column order given.
func FromColumns(def *model.Definition, cols [][]int32) (*SearchSpace, error) {
	if err := def.Validate(); err != nil {
		return nil, err
	}
	if len(cols) != len(def.Params) {
		return nil, fmt.Errorf("searchspace: %d columns for %d parameters", len(cols), len(def.Params))
	}
	rows := 0
	if len(cols) > 0 {
		rows = len(cols[0])
	}
	for p, col := range cols {
		if len(col) != rows {
			return nil, fmt.Errorf("searchspace: column %q has %d rows, column %q has %d",
				def.Params[p].Name, len(col), def.Params[0].Name, rows)
		}
	}
	names := make([]string, len(def.Params))
	for i, p := range def.Params {
		names[i] = p.Name
	}
	sp, err := space.FromColumnar(def, &core.Columnar{Names: names, Cols: cols})
	if err != nil {
		return nil, err
	}
	return &SearchSpace{s: sp, def: def}, nil
}
