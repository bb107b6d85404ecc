package expr

import (
	"fmt"
	"strings"
	"unicode"
)

// tokKind enumerates lexical token categories of the constraint language.
type tokKind uint8

const (
	tokEOF tokKind = iota
	tokInt
	tokFloat
	tokString
	tokName // identifier or keyword
	tokOp   // operator or punctuation
	tokInvalid
)

// token is one lexical unit with its source position for error reporting.
type token struct {
	kind tokKind
	text string
	pos  int
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "end of expression"
	case tokString:
		return fmt.Sprintf("string %q", t.text)
	default:
		return fmt.Sprintf("%q", t.text)
	}
}

// SyntaxError reports a lexical or grammatical error with its byte offset
// in the source expression.
type SyntaxError struct {
	Src string
	Pos int
	Msg string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("expr: %s at offset %d in %q", e.Msg, e.Pos, e.Src)
}

// multi-character operators, longest first so maximal munch works.
var multiOps = []string{"**", "//", "<=", ">=", "==", "!="}

const singleOps = "+-*/%<>()[],"

// lex splits src into tokens. It accepts the Python expression subset used
// by auto-tuning constraints: names, integer/float/string literals, the
// arithmetic and comparison operators, parentheses, brackets and commas.
func lex(src string) ([]token, error) {
	var toks []token
	i := 0
	n := len(src)
	for i < n {
		if len(toks) == maxTokens {
			return nil, &SyntaxError{src, i, fmt.Sprintf("expression longer than %d tokens", maxTokens)}
		}
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c >= '0' && c <= '9' || c == '.' && i+1 < n && src[i+1] >= '0' && src[i+1] <= '9':
			start := i
			isFloat := false
			for i < n && (src[i] >= '0' && src[i] <= '9' || src[i] == '.' || src[i] == 'e' || src[i] == 'E' ||
				((src[i] == '+' || src[i] == '-') && i > start && (src[i-1] == 'e' || src[i-1] == 'E'))) {
				if src[i] == '.' || src[i] == 'e' || src[i] == 'E' {
					isFloat = true
				}
				i++
			}
			kind := tokInt
			if isFloat {
				kind = tokFloat
			}
			toks = append(toks, token{kind, src[start:i], start})
		case isNameStart(rune(c)):
			start := i
			for i < n && isNamePart(rune(src[i])) {
				i++
			}
			toks = append(toks, token{tokName, src[start:i], start})
		case c == '"' || c == '\'':
			quote := c
			start := i
			i++
			var sb strings.Builder
			closed := false
			for i < n {
				if src[i] == '\\' && i+1 < n {
					sb.WriteByte(src[i+1])
					i += 2
					continue
				}
				if src[i] == quote {
					closed = true
					i++
					break
				}
				sb.WriteByte(src[i])
				i++
			}
			if !closed {
				return nil, &SyntaxError{src, start, "unterminated string literal"}
			}
			toks = append(toks, token{tokString, sb.String(), start})
		default:
			matched := false
			for _, op := range multiOps {
				if strings.HasPrefix(src[i:], op) {
					toks = append(toks, token{tokOp, op, i})
					i += len(op)
					matched = true
					break
				}
			}
			if matched {
				continue
			}
			if strings.IndexByte(singleOps, c) >= 0 {
				toks = append(toks, token{tokOp, string(c), i})
				i++
				continue
			}
			return nil, &SyntaxError{src, i, fmt.Sprintf("unexpected character %q", c)}
		}
	}
	toks = append(toks, token{tokEOF, "", n})
	return toks, nil
}

func isNameStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isNamePart(r rune) bool {
	return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r)
}
