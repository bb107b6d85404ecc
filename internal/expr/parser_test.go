package expr

import (
	"errors"
	"strings"
	"testing"

	"searchspace/internal/value"
)

func mustEval(t *testing.T, src string, env Env) value.Value {
	t.Helper()
	n, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	v, err := Eval(n, env)
	if err != nil {
		t.Fatalf("Eval(%q): %v", src, err)
	}
	return v
}

func TestParseArithmetic(t *testing.T) {
	cases := []struct {
		src  string
		want value.Value
	}{
		{"1 + 2 * 3", value.OfInt(7)},
		{"(1 + 2) * 3", value.OfInt(9)},
		{"2 ** 3 ** 2", value.OfInt(512)}, // right associative
		{"-2 ** 2", value.OfInt(-4)},      // unary binds looser than **
		{"2 ** -1", value.OfFloat(0.5)},
		{"7 // 2", value.OfInt(3)},
		{"7 % 3", value.OfInt(1)},
		{"7 / 2", value.OfFloat(3.5)},
		{"1.5 + 1", value.OfFloat(2.5)},
		{"+5", value.OfInt(5)},
		{"--5", value.OfInt(5)},
		{"10 - 2 - 3", value.OfInt(5)}, // left associative
		{"100 // 7 // 2", value.OfInt(7)},
	}
	for _, c := range cases {
		got := mustEval(t, c.src, nil)
		if !value.Equal(got, c.want) {
			t.Errorf("%q = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestParseComparisonsAndBool(t *testing.T) {
	cases := []struct {
		src  string
		want bool
	}{
		{"1 < 2", true},
		{"2 <= 2", true},
		{"3 > 4", false},
		{"4 >= 4", true},
		{"1 == 1.0", true},
		{"1 != 2", true},
		{"1 < 2 < 3", true},
		{"1 < 3 < 2", false},
		{"2 <= 2 <= 2", true},
		{"32 <= 8 * 8 <= 1024", true},
		{"True and False", false},
		{"True or False", true},
		{"not True", false},
		{"not 0", true},
		{"1 < 2 and 3 < 4", true},
		{"1 > 2 or 3 < 4", true},
		{"not 1 > 2", true},
		{"True and True and False", false},
		{"False or False or True", true},
		{"3 in [1, 2, 3]", true},
		{"4 in [1, 2, 3]", false},
		{"4 not in [1, 2, 3]", true},
		{"'a' in ['a', 'b']", true},
		{`"c" not in ["a", "b"]`, true},
	}
	for _, c := range cases {
		got := mustEval(t, c.src, nil)
		if got.Truthy() != c.want {
			t.Errorf("%q = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestParseWithVariables(t *testing.T) {
	env := MapEnv{
		"block_size_x": value.OfInt(16),
		"block_size_y": value.OfInt(8),
		"sh_power":     value.OfBool(true),
	}
	cases := []struct {
		src  string
		want bool
	}{
		{"32 <= block_size_x * block_size_y <= 1024", true},
		{"block_size_x * block_size_y > 1024", false},
		{"block_size_x % block_size_y == 0", true},
		{"sh_power and block_size_x > 4", true},
		{"block_size_x in [8, 16, 32]", true},
		{`p["block_size_x"] * p["block_size_y"] >= 32`, true},
		{"min(block_size_x, block_size_y) == 8", true},
		{"max(block_size_x, block_size_y, 100) == 100", true},
		{"abs(block_size_y - block_size_x) == 8", true},
		{"pow(block_size_y, 2) == 64", true},
	}
	for _, c := range cases {
		got := mustEval(t, c.src, env)
		if got.Truthy() != c.want {
			t.Errorf("%q = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"1 +",
		"(1 + 2",
		"[1, 2",
		"foo(1)",
		"min(1)",
		"abs(1, 2)",
		"1 @ 2",
		"'unterminated",
		"x in 5",
		"x in y",
		"1 2",
		"and 1",
		"p[3]",
		"p['x'",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		} else if !strings.HasPrefix(err.Error(), "expr:") {
			t.Errorf("Parse(%q) error %q should carry expr: prefix", src, err)
		}
	}
}

func TestVars(t *testing.T) {
	n := MustParse("a * b + c < 10 and d in [1, 2] or a > 1")
	got := Vars(n)
	want := []string{"a", "b", "c", "d"}
	if len(got) != len(want) {
		t.Fatalf("Vars = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Vars = %v, want %v", got, want)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	srcs := []string{
		"32 <= block_size_x * block_size_y <= 1024",
		"a + b * c - d",
		"not (a or b)",
		"x in [1, 2, 3]",
		"min(a, b) >= 2",
	}
	for _, src := range srcs {
		n1 := MustParse(src)
		n2, err := Parse(n1.String())
		if err != nil {
			t.Fatalf("reparse of %q → %q failed: %v", src, n1.String(), err)
		}
		if n1.String() != n2.String() {
			t.Errorf("round trip drifted: %q → %q", n1.String(), n2.String())
		}
	}
}

func TestLexPositions(t *testing.T) {
	_, err := Parse("a + $")
	if err == nil {
		t.Fatal("expected error")
	}
	se, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("want *SyntaxError, got %T", err)
	}
	if se.Pos != 4 {
		t.Errorf("error position = %d, want 4", se.Pos)
	}
}

func TestChainWithMembership(t *testing.T) {
	env := MapEnv{"x": value.OfInt(4)}
	got := mustEval(t, "2 <= x in [4, 8]", env)
	if !got.Truthy() {
		t.Errorf("2 <= x in [4,8] with x=4 should be true")
	}
}

func TestScientificNotation(t *testing.T) {
	got := mustEval(t, "1e3 + 2.5e-1", nil)
	if got.Float() != 1000.25 {
		t.Errorf("1e3 + 2.5e-1 = %v", got)
	}
}

// TestNestingLimit pins maxNesting for every recursive form: nesting to
// the limit parses, one level more is a SyntaxError rather than a stack
// overflow.
func TestNestingLimit(t *testing.T) {
	forms := map[string]func(n int) string{
		"parens":  func(n int) string { return strings.Repeat("(", n) + "a" + strings.Repeat(")", n) },
		"list":    func(n int) string { return strings.Repeat("[", n) + "a" + strings.Repeat("]", n) },
		"call":    func(n int) string { return strings.Repeat("abs(", n) + "a" + strings.Repeat(")", n) },
		"not":     func(n int) string { return strings.Repeat("not ", n) + "a" },
		"neg":     func(n int) string { return strings.Repeat("- ", n) + "a" },
		"pos":     func(n int) string { return strings.Repeat("+ ", n) + "a" },
		"pow_rhs": func(n int) string { return "a" + strings.Repeat(" ** a", n) },
	}
	for name, form := range forms {
		if _, err := Parse(form(maxNesting)); err != nil {
			t.Errorf("%s at the limit: %v", name, err)
		}
		var se *SyntaxError
		if _, err := Parse(form(maxNesting + 1)); !errors.As(err, &se) {
			t.Errorf("%s past the limit: got %v, want a SyntaxError", name, err)
		}
	}
}

// TestNodeLimit pins maxNodes: a left-deep chain of exactly maxNodes
// nodes parses, one node more is a SyntaxError. Unbounded, the passes
// after parsing recurse once per link of such a chain.
func TestNodeLimit(t *testing.T) {
	forms := map[string]func(n int) string{
		// a + a + ... + a has 2k-1 nodes for k operands; a leading
		// unary minus adds one.
		"sum": func(n int) string {
			s := strings.Repeat("a + ", (n-1)/2) + "a"
			if n%2 == 0 {
				s = "-" + s
			}
			return s
		},
		// a and a and ... and a is one BoolOp over n-1 operands.
		"and": func(n int) string { return strings.Repeat("a and ", n-2) + "a" },
	}
	for name, form := range forms {
		for _, n := range []int{maxNodes - 1, maxNodes} {
			if _, err := Parse(form(n)); err != nil {
				t.Errorf("%s of %d nodes: %v", name, n, err)
			}
		}
		var se *SyntaxError
		_, err := Parse(form(maxNodes + 1))
		if !errors.As(err, &se) || !strings.Contains(se.Msg, "nodes") {
			t.Errorf("%s of %d nodes: got %v, want a SyntaxError naming the node budget", name, maxNodes+1, err)
		}
	}
}

// TestTokenLimit: input past maxTokens is refused by the lexer before a
// token list of that size is built.
func TestTokenLimit(t *testing.T) {
	var se *SyntaxError
	_, err := Parse(strings.Repeat("a+", maxTokens/2) + "a")
	if !errors.As(err, &se) || !strings.Contains(se.Msg, "tokens") {
		t.Fatalf("got %.200v, want a SyntaxError naming the token bound", err)
	}
}
