package expr

import (
	"math/rand"
	"testing"

	"searchspace/internal/value"
)

func analyzeOne(t *testing.T, src string) []Spec {
	t.Helper()
	specs, err := AnalyzeString(src)
	if err != nil {
		t.Fatalf("AnalyzeString(%q): %v", src, err)
	}
	return specs
}

// TestAnalyzePaperExample reproduces Figure 1: the compound constraint
// 2 <= block_size_y <= 32 <= block_size_x * block_size_y <= 1024 must
// decompose into two unary prefilters, a min-product and a max-product.
func TestAnalyzePaperExample(t *testing.T) {
	specs := analyzeOne(t, "2 <= block_size_y <= 32 <= block_size_x * block_size_y <= 1024")
	if len(specs) != 4 {
		t.Fatalf("got %d specs (%v), want 4", len(specs), specs)
	}
	counts := map[SpecKind]int{}
	for _, s := range specs {
		counts[s.Kind]++
	}
	if counts[SpecUnary] != 2 {
		t.Errorf("unary prefilters = %d, want 2 (specs: %v)", counts[SpecUnary], specs)
	}
	if counts[SpecMinProd] != 1 || counts[SpecMaxProd] != 1 {
		t.Errorf("min/max product = %d/%d, want 1/1 (specs: %v)",
			counts[SpecMinProd], counts[SpecMaxProd], specs)
	}
	for _, s := range specs {
		switch s.Kind {
		case SpecMinProd:
			if s.Bound != 32 || s.Strict {
				t.Errorf("MinProd bound = %v strict=%v, want 32 inclusive", s.Bound, s.Strict)
			}
		case SpecMaxProd:
			if s.Bound != 1024 || s.Strict {
				t.Errorf("MaxProd bound = %v strict=%v, want 1024 inclusive", s.Bound, s.Strict)
			}
		}
	}
}

func TestAnalyzeConjunctionSplit(t *testing.T) {
	specs := analyzeOne(t, "a * b >= 32 and a * b <= 1024 and c > 2")
	if len(specs) != 3 {
		t.Fatalf("got %d specs, want 3: %v", len(specs), specs)
	}
	if specs[0].Kind != SpecMinProd || specs[1].Kind != SpecMaxProd || specs[2].Kind != SpecUnary {
		t.Errorf("kinds = %v %v %v", specs[0].Kind, specs[1].Kind, specs[2].Kind)
	}
}

func TestAnalyzeCoefficientNormalization(t *testing.T) {
	specs := analyzeOne(t, "a * b * 4 <= 49152")
	if len(specs) != 1 || specs[0].Kind != SpecMaxProd {
		t.Fatalf("specs = %v", specs)
	}
	if specs[0].Bound != 49152.0/4 {
		t.Errorf("bound = %v, want %v", specs[0].Bound, 49152.0/4)
	}
	// Negative coefficient flips the direction.
	specs = analyzeOne(t, "-2 * a * b <= 10")
	if len(specs) != 1 || specs[0].Kind != SpecMinProd {
		t.Fatalf("negative-coefficient specs = %v", specs)
	}
	if specs[0].Bound != -5 {
		t.Errorf("bound = %v, want -5", specs[0].Bound)
	}
}

func TestAnalyzeConstantOnLeft(t *testing.T) {
	specs := analyzeOne(t, "32 <= a * b")
	if len(specs) != 1 || specs[0].Kind != SpecMinProd || specs[0].Bound != 32 {
		t.Fatalf("specs = %v", specs)
	}
}

func TestAnalyzeSum(t *testing.T) {
	specs := analyzeOne(t, "a + b + 5 <= 100")
	if len(specs) != 1 || specs[0].Kind != SpecMaxSum {
		t.Fatalf("specs = %v", specs)
	}
	if specs[0].Bound != 95 {
		t.Errorf("bound = %v, want 95", specs[0].Bound)
	}
	specs = analyzeOne(t, "2*a + 3*b > 10")
	if len(specs) != 1 || specs[0].Kind != SpecMinSum || !specs[0].Strict {
		t.Fatalf("specs = %v", specs)
	}
	if specs[0].Coeffs[0] != 2 || specs[0].Coeffs[1] != 3 {
		t.Errorf("coeffs = %v", specs[0].Coeffs)
	}
	specs = analyzeOne(t, "a - b >= 0")
	if len(specs) != 1 || specs[0].Kind != SpecMinSum {
		t.Fatalf("a-b>=0 specs = %v", specs)
	}
	if specs[0].Coeffs[1] != -1 {
		t.Errorf("coeffs = %v, want second -1", specs[0].Coeffs)
	}
}

func TestAnalyzeVarCmpAndDivides(t *testing.T) {
	specs := analyzeOne(t, "a <= b")
	if len(specs) != 1 || specs[0].Kind != SpecVarCmp || specs[0].CmpOp != OpLe {
		t.Fatalf("specs = %v", specs)
	}
	specs = analyzeOne(t, "16 >= a")
	if len(specs) != 1 || specs[0].Kind != SpecUnary {
		t.Fatalf("specs = %v", specs)
	}
	specs = analyzeOne(t, "a % b == 0")
	if len(specs) != 1 || specs[0].Kind != SpecDivides {
		t.Fatalf("specs = %v", specs)
	}
	if specs[0].Vars[0] != "a" || specs[0].Vars[1] != "b" {
		t.Errorf("divides vars = %v", specs[0].Vars)
	}
	// a % a == 0 is unary after var counting, not SpecDivides.
	specs = analyzeOne(t, "a % a == 0")
	if len(specs) != 1 || specs[0].Kind != SpecUnary {
		t.Fatalf("a %% a specs = %v", specs)
	}
}

func TestAnalyzeConstants(t *testing.T) {
	specs := analyzeOne(t, "1 < 2")
	if len(specs) != 1 || specs[0].Kind != SpecTrue {
		t.Fatalf("specs = %v", specs)
	}
	specs = analyzeOne(t, "1 > 2")
	if len(specs) != 1 || specs[0].Kind != SpecFalse {
		t.Fatalf("specs = %v", specs)
	}
	// Constant subexpressions fold away inside constraints.
	specs = analyzeOne(t, "a * b <= 2 ** 10")
	if len(specs) != 1 || specs[0].Kind != SpecMaxProd || specs[0].Bound != 1024 {
		t.Fatalf("specs = %v", specs)
	}
}

func TestAnalyzeFallbackToFunc(t *testing.T) {
	srcs := []string{
		"(a + 1) * (b + 1) <= 100", // not a pure product
		"a * b == 64",              // equality on product
		"a % b == 1",               // nonzero remainder
		"a * b <= c",               // non-constant bound
		"a or b",                   // disjunction
	}
	for _, src := range srcs {
		specs := analyzeOne(t, src)
		if len(specs) != 1 || specs[0].Kind != SpecFunc {
			t.Errorf("%q → %v, want a single SpecFunc", src, specs)
		}
	}
}

func TestAnalyzeRepeatedVarProduct(t *testing.T) {
	specs := analyzeOne(t, "a * a * b <= 512")
	if len(specs) != 1 || specs[0].Kind != SpecMaxProd {
		t.Fatalf("specs = %v", specs)
	}
	if len(specs[0].Vars) != 3 {
		t.Errorf("vars with multiplicity = %v, want 3 entries", specs[0].Vars)
	}
}

// TestAnalyzeEquivalence verifies on random assignments that the
// conjunction of analyzed specs' Node expressions is equivalent to the
// original constraint — the soundness property of the Figure 1 rewrite.
func TestAnalyzeEquivalence(t *testing.T) {
	srcs := []string{
		"2 <= b <= 32 <= a * b <= 1024",
		"a * b >= 32 and a * b <= 1024 and c > 2",
		"a * b * 4 <= 256 and a % b == 0",
		"a + b <= 20 or a == 1",
		"not (a > b and b > c)",
		"a in [1, 2, 4] and b * c < 50",
		"a * b * c * 2 > 16",
		"3 * a - 2 * b + c >= 0",
	}
	rng := rand.New(rand.NewSource(7))
	for _, src := range srcs {
		orig := MustParse(src)
		specs := Analyze(orig)
		for trial := 0; trial < 300; trial++ {
			env := MapEnv{
				"a": value.OfInt(int64(rng.Intn(16) + 1)),
				"b": value.OfInt(int64(rng.Intn(16) + 1)),
				"c": value.OfInt(int64(rng.Intn(16) + 1)),
			}
			want, err := EvalBool(orig, env)
			if err != nil {
				t.Fatalf("%q: %v", src, err)
			}
			got := true
			for _, s := range specs {
				switch s.Kind {
				case SpecTrue:
					continue
				case SpecFalse:
					got = false
				default:
					ok, err := EvalBool(s.Node, env)
					if err != nil {
						t.Fatalf("%q spec %v: %v", src, s, err)
					}
					got = got && ok
				}
				if !got {
					break
				}
			}
			if got != want {
				t.Fatalf("%q with %v: original %v, specs %v (%v)", src, env, want, got, specs)
			}
		}
	}
}

func TestAnalyzeStringParseError(t *testing.T) {
	if _, err := AnalyzeString("a +"); err == nil {
		t.Fatal("expected parse error")
	}
}

func TestSpecString(t *testing.T) {
	specs := analyzeOne(t, "a * b <= 10")
	if got := specs[0].String(); got == "" {
		t.Error("Spec.String should not be empty")
	}
	if (Spec{Kind: SpecTrue}).String() != "true" {
		t.Error("SpecTrue string")
	}
}
