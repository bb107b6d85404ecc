// Package service implements the spaced search-space service: a JSON
// problem codec so definitions travel over the wire, a content-addressed
// registry that builds each definition at most once and serves cached
// spaces under an LRU budget, HTTP handlers exposing membership, bounds,
// sampling, and neighbor queries, and request/cache metrics.
//
// The split it exploits is the paper's: construction is the expensive
// step (seconds to hours at scale) while queries on the materialized
// space are O(1) or near it, so a service that constructs once and
// serves many query clients amortizes exactly the cost the optimized
// solver minimizes.
package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"

	"searchspace"
	"searchspace/internal/model"
	"searchspace/internal/value"
)

// ProblemDoc is the wire form of a search-space definition. It is the
// same schema spacecli reads from disk, extended with type-faithful
// value encoding: integers stay integers, floats keep a decimal point,
// and bools and strings map to their JSON natives.
//
// Native Go constraint functions (Problem.AddConstraintFunc) are NOT
// serializable — a closure has no canonical wire form — so EncodeProblem
// rejects definitions that carry them; only string constraints in the
// Python expression subset travel.
type ProblemDoc struct {
	Name        string     `json:"name"`
	Params      []ParamDoc `json:"params"`
	Constraints []string   `json:"constraints,omitempty"`
}

// ParamDoc is one parameter and its legal values on the wire.
type ParamDoc struct {
	Name   string     `json:"name"`
	Values []ValueDoc `json:"values"`
}

// ValueDoc wraps a single parameter value so int/float/bool/string
// round-trip with their kinds intact. Plain encoding/json would decode
// every number as float64 and re-encode 2.0 as 2, silently turning
// float domains into int domains across one hop.
//
// Both directions work on the bytes directly, with no per-value decoder
// and no reflection: every route that carries values decodes and
// encodes them through here, so a batch of a few hundred values costs
// microseconds, not a decoder allocation each. Anything past the plain
// cases (escapes, control bytes, non-ASCII, HTML-sensitive bytes) goes
// through encoding/json, so the semantics and the bytes are unchanged.
type ValueDoc struct {
	V value.Value
}

// MarshalJSON renders the value as its JSON native, forcing a decimal
// point (or exponent) onto integral floats so kind survives the trip.
func (d ValueDoc) MarshalJSON() ([]byte, error) {
	return d.appendJSON(nil)
}

// appendJSON appends the value's JSON form to buf. Strings come out
// HTML-escaped, as json.Marshal writes them, whatever encoder the
// result is nested in.
func (d ValueDoc) appendJSON(buf []byte) ([]byte, error) {
	switch d.V.Kind() {
	case value.Int:
		return strconv.AppendInt(buf, d.V.Int(), 10), nil
	case value.Float:
		start := len(buf)
		buf = strconv.AppendFloat(buf, d.V.Float(), 'g', -1, 64)
		if !bytes.ContainsAny(buf[start:], ".eE") {
			buf = append(buf, ".0"...)
		}
		return buf, nil
	case value.Bool:
		return strconv.AppendBool(buf, d.V.Bool()), nil
	case value.String:
		return appendJSONString(buf, d.V.Str(), true)
	}
	return nil, fmt.Errorf("service: unencodable value kind %v", d.V.Kind())
}

// UnmarshalJSON decodes a JSON scalar into a kinded value: numbers
// without a fraction or exponent become ints, the rest floats. raw is
// one literal encoding/json has already validated, so its first byte
// names its kind.
func (d *ValueDoc) UnmarshalJSON(raw []byte) error {
	var c byte
	if len(raw) > 0 {
		c = raw[0]
	}
	switch {
	case c == '"':
		if n := len(raw); n >= 2 && raw[n-1] == '"' && plainJSON(raw[1:n-1]) {
			d.V = value.OfString(string(raw[1 : n-1]))
			return nil
		}
		// Escapes and non-ASCII text: encoding/json unescapes and
		// replaces invalid UTF-8 exactly as it always has.
		var s string
		if err := json.Unmarshal(raw, &s); err != nil {
			return err
		}
		d.V = value.OfString(s)
		return nil
	case string(raw) == "true":
		d.V = value.OfBool(true)
		return nil
	case string(raw) == "false":
		d.V = value.OfBool(false)
		return nil
	case c == '-' || '0' <= c && c <= '9':
		if !bytes.ContainsAny(raw, ".eE") {
			// Literals beyond int64 fall back to float, matching what a
			// plain JSON decode would have produced.
			if i, err := strconv.ParseInt(string(raw), 10, 64); err == nil {
				d.V = value.OfInt(i)
				return nil
			}
		}
		f, err := strconv.ParseFloat(string(raw), 64)
		if err != nil {
			return err
		}
		d.V = value.OfFloat(f)
		return nil
	}
	return fmt.Errorf("service: parameter value must be a number, bool, or string, got %s", raw)
}

// plainJSON reports whether s is printable ASCII that JSON writes
// verbatim between quotes under HTML escaping: no quote, backslash,
// control byte, non-ASCII byte, or any of < > &.
func plainJSON[T string | []byte](s T) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20 || c > 0x7e, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return false
		}
	}
	return true
}

// appendJSONString appends s as a JSON string: plain text verbatim
// between quotes, anything else through encoding/json with the given
// HTML escaping.
func appendJSONString(buf []byte, s string, escapeHTML bool) ([]byte, error) {
	if plainJSON(s) {
		buf = append(buf, '"')
		buf = append(buf, s...)
		return append(buf, '"'), nil
	}
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(escapeHTML)
	if err := enc.Encode(s); err != nil {
		return nil, err
	}
	return append(buf, bytes.TrimSuffix(b.Bytes(), []byte("\n"))...), nil
}

// ConfigDoc is a configuration on the wire, kind-faithful per value.
type ConfigDoc map[string]ValueDoc

// MarshalJSON writes the configuration as one object with its keys
// sorted byte-wise, the order encoding/json gives map keys, so the
// bytes match the reflection path's. Keys are written without HTML
// escaping: the enclosing encoder escapes < > & when it is set to, just
// as it does for map keys, while values stay escaped as ValueDoc writes
// them.
func (c ConfigDoc) MarshalJSON() ([]byte, error) {
	if c == nil {
		return []byte("null"), nil
	}
	keys := make([]string, 0, len(c))
	size := 2
	for k := range c {
		keys = append(keys, k)
		size += len(k) + 24 // quotes, colon, comma and a short value
	}
	slices.Sort(keys)
	buf := make([]byte, 0, size)
	buf = append(buf, '{')
	for i, k := range keys {
		if i > 0 {
			buf = append(buf, ',')
		}
		var err error
		if buf, err = appendJSONString(buf, k, false); err != nil {
			return nil, err
		}
		buf = append(buf, ':')
		if buf, err = c[k].appendJSON(buf); err != nil {
			return nil, err
		}
	}
	return append(buf, '}'), nil
}

// EncodeProblem lowers a definition to its wire form. It fails on
// definitions with Go constraint functions: closures cannot be
// serialized, hashed, or replayed on another process, so they are
// unsupported in the service path by design.
func EncodeProblem(def *model.Definition) (*ProblemDoc, error) {
	if len(def.GoConstraints) > 0 {
		return nil, fmt.Errorf("service: definition %q has %d native Go constraint function(s); function constraints are not serializable — rewrite them as string constraints to submit over the wire",
			def.Name, len(def.GoConstraints))
	}
	doc := &ProblemDoc{Name: def.Name, Constraints: append([]string(nil), def.Constraints...)}
	doc.Params = make([]ParamDoc, len(def.Params))
	for i, p := range def.Params {
		pd := ParamDoc{Name: p.Name, Values: make([]ValueDoc, len(p.Values))}
		for j, v := range p.Values {
			pd.Values[j] = ValueDoc{V: v}
		}
		doc.Params[i] = pd
	}
	return doc, nil
}

// Decode raises the wire form back into a definition and validates it
// (unique names, non-empty domains, parseable constraints).
func (doc *ProblemDoc) Decode() (*model.Definition, error) {
	def := &model.Definition{Name: doc.Name, Constraints: append([]string(nil), doc.Constraints...)}
	def.Params = make([]model.Param, len(doc.Params))
	for i, p := range doc.Params {
		vals := make([]value.Value, len(p.Values))
		for j, v := range p.Values {
			vals[j] = v.V
		}
		def.Params[i] = model.Param{Name: p.Name, Values: vals}
	}
	if err := def.Validate(); err != nil {
		return nil, err
	}
	return def, nil
}

// MarshalProblem serializes a definition to JSON bytes.
func MarshalProblem(def *model.Definition) ([]byte, error) {
	doc, err := EncodeProblem(def)
	if err != nil {
		return nil, err
	}
	return json.Marshal(doc)
}

// UnmarshalProblem parses JSON bytes into a validated definition.
func UnmarshalProblem(raw []byte) (*model.Definition, error) {
	var doc ProblemDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("service: bad problem JSON: %w", err)
	}
	return doc.Decode()
}

// CanonicalBytes renders the definition+method pair in its canonical
// wire form: parameters in declaration order (order is semantic — it
// fixes row enumeration), constraints sorted (order is not), values in
// kind-faithful encoding, method by report label. The definition's
// Name is a display label, not content, and is excluded — two
// submissions with identical params+constraints+method produce
// identical bytes whatever they are called, so renamed copies of one
// space share a single construction.
func CanonicalBytes(def *model.Definition, method searchspace.Method) ([]byte, error) {
	canon := def.Clone()
	canon.Name = ""
	canon.Constraints = def.CanonicalConstraints()
	doc, err := EncodeProblem(canon)
	if err != nil {
		return nil, err
	}
	payload := struct {
		Method  string      `json:"method"`
		Problem *ProblemDoc `json:"problem"`
	}{Method: method.String(), Problem: doc}
	return json.Marshal(payload)
}

// Fingerprint returns the content address of a definition+method pair:
// the hex SHA-256 of its canonical bytes. It is the registry key and
// the public space id.
func Fingerprint(def *model.Definition, method searchspace.Method) (string, error) {
	raw, err := CanonicalBytes(def, method)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:]), nil
}

// ParamsFingerprint returns the content address of the definition's
// parameter block alone — names and domains in declaration order, with
// the display name, constraints, and method all excluded. It is the
// lattice index key: every definition over the same parameters hashes
// here identically whatever it is constrained by or built with, which
// is exactly the family within which one cached space can be
// restricted into another.
func ParamsFingerprint(def *model.Definition) (string, error) {
	canon := def.Clone()
	canon.Name = ""
	canon.Constraints = nil
	canon.GoConstraints = nil
	doc, err := EncodeProblem(canon)
	if err != nil {
		return "", err
	}
	raw, err := json.Marshal(doc)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:]), nil
}
