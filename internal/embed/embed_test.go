package embed

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestTokenize(t *testing.T) {
	cases := []struct {
		in    string
		split bool
		want  []string
	}{
		{"check if a number is prime", false, []string{"check", "if", "a", "number", "is", "prime"}},
		{"getVoTable", true, []string{"get", "vo", "table"}},
		{"snake_case_name", true, []string{"snake", "case", "name"}},
		{"HTTPServer2", true, []string{"http", "server", "2"}},
		{"random.randint(1, 1000)", true, []string{"random", "randint", "1", "1000"}},
		{"snake_case_name", false, []string{"snake_case_name"}},
	}
	for _, c := range cases {
		got := Tokenize(c.in, c.split)
		if len(got) != len(c.want) {
			t.Errorf("Tokenize(%q, %v) = %v, want %v", c.in, c.split, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("Tokenize(%q)[%d] = %q, want %q", c.in, i, got[i], c.want[i])
			}
		}
	}
}

func TestEmbeddingsAreUnitVectors(t *testing.T) {
	for _, name := range ModelNames() {
		m := MustLookup(name)
		for _, text := range []string{
			"check if a number is prime",
			"def f(x):\n    return x * 2",
			"",
			"a",
		} {
			v := m.Embed(text)
			if len(v) != Dim {
				t.Fatalf("%s: dim %d", name, len(v))
			}
			var norm float64
			for _, x := range v {
				norm += float64(x) * float64(x)
			}
			if math.Abs(math.Sqrt(norm)-1) > 1e-3 {
				t.Errorf("%s: |v| = %f for %q", name, math.Sqrt(norm), text)
			}
		}
	}
}

func TestEmbeddingsDeterministic(t *testing.T) {
	m := MustLookup(ModelCodeSearch)
	a := m.Embed("reverse a string")
	b := m.Embed("reverse a string")
	if Cosine(a, b) < 0.9999 {
		t.Error("same input must embed identically")
	}
}

// A text's noise direction is recomputed on every Embed, not memoised:
// 10k distinct texts add no "noise:" key to the direction cache, and a
// repeated text still embeds bit-identically.
func TestNoiseDirectionIsNotMemoised(t *testing.T) {
	m := MustLookup(ModelCodeSearch)
	words := strings.Fields("stream data flow prime number count word filter merge sort")
	for i := 0; i < 10000; i++ {
		m.Embed(words[i%10] + " " + words[i/10%10] + " " + words[i/100%10] + " " + words[i/1000%10])
	}
	m.cache.Range(func(k, _ any) bool {
		if strings.HasPrefix(k.(string), "noise:") {
			t.Errorf("direction cache holds %q", k)
			return false
		}
		return true
	})
	a, b := m.Embed("count words in a stream"), m.Embed("count words in a stream")
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			t.Fatalf("repeat embed differs at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestRelatedTextsScoreHigherThanUnrelated(t *testing.T) {
	m := MustLookup(ModelCodeSearch)
	query := m.Embed("check if a number is prime")
	related := m.Embed("def check_prime(num):\n    return all(num % i != 0 for i in range(2, num))")
	unrelated := m.Embed("def read_file(path):\n    f = open(path)\n    return f.read()")
	if Cosine(query, related) <= Cosine(query, unrelated) {
		t.Errorf("related %.3f should beat unrelated %.3f",
			Cosine(query, related), Cosine(query, unrelated))
	}
}

func TestAlignmentBridgesParaphrases(t *testing.T) {
	// The fine-tuned model must map 'verify'→'check'; the base model keeps
	// them apart — the Table 6 mechanism.
	tuned := MustLookup(ModelCodeSearch)
	base := MustLookup(ModelUnixcoderBase)
	code := "def check_prime(num):\n    return all(num % i != 0 for i in range(2, num))"
	para := "verify that an integer is prime"

	tunedGap := Cosine(tuned.Embed(para), tuned.Embed(code))
	baseGap := Cosine(base.Embed(para), base.Embed(code))
	if tunedGap <= baseGap {
		t.Errorf("fine-tuned similarity %.3f should exceed base %.3f", tunedGap, baseGap)
	}
}

func TestIdentifierSplittingSurvivesRenames(t *testing.T) {
	// Models with identifier splitting keep similarity under renames.
	m := MustLookup(ModelCloneDetection)
	a := m.Embed("def solve(n):\n    total = 0\n    for i in range(n):\n        total += i\n    return total")
	b := m.Embed("def answer(n):\n    total = 0\n    for x in range(n):\n        total += x\n    return total")
	c := m.Embed("def parse_json(text):\n    import json\n    return json.loads(text)")
	if Cosine(a, b) <= Cosine(a, c) {
		t.Errorf("renamed clone %.3f should beat unrelated %.3f", Cosine(a, b), Cosine(a, c))
	}
}

func TestRankOrdersByScore(t *testing.T) {
	m := MustLookup(ModelCodeSearch)
	q := m.Embed("sort a list ascending")
	cands := []Vector{
		m.Embed("def delete_space(text):\n    return text.replace(' ', '')"),
		m.Embed("def sort_ascending(items):\n    out = list(items)\n    out.sort()\n    return out"),
		m.Embed("def get_first(items):\n    return items[0]"),
	}
	idxs, scores := Rank(q, cands)
	if idxs[0] != 1 {
		t.Errorf("top hit = %d (scores %v)", idxs[0], scores)
	}
	for i := 1; i < len(scores); i++ {
		if scores[i] > scores[i-1] {
			t.Errorf("scores not descending: %v", scores)
		}
	}
}

func TestLookupErrors(t *testing.T) {
	if _, err := Lookup("no/such-model"); err == nil {
		t.Error("unknown model should fail")
	}
	if len(ModelNames()) != 8 {
		t.Errorf("zoo size = %d, want 8", len(ModelNames()))
	}
}

func TestCrossEncoderPrefersTrueMatch(t *testing.T) {
	ce := NewCrossEncoder(MustLookup(ModelCodeSearch))
	query := "calculate the factorial of a number"
	candidates := []string{
		"def reverse_string(text):\n    return text[::-1]",
		"def calculate_factorial(n):\n    result = 1\n    for i in range(2, n + 1):\n        result *= i\n    return result",
		"def read_file(path):\n    return open(path).read()",
	}
	idxs, _ := ce.RankStrings(query, candidates)
	if idxs[0] != 1 {
		t.Errorf("cross-encoder top hit = %d", idxs[0])
	}
}

// Property: cosine similarity of any two embeddings stays within [-1, 1].
func TestCosineBounded(t *testing.T) {
	m := MustLookup(ModelReACC)
	f := func(a, b string) bool {
		c := Cosine(m.Embed(a), m.Embed(b))
		return c >= -1.0001 && c <= 1.0001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: embedding is invariant to leading/trailing whitespace of the
// whole text modulo the noise component's text-dependence — so check only
// the token-dominant low-noise model.
func TestCharNGrams(t *testing.T) {
	grams := charNGrams("abc def", 4)
	if len(grams) != 4 {
		t.Errorf("grams: %v", grams)
	}
	if grams[0] != "abc " {
		t.Errorf("first gram: %q", grams[0])
	}
	if got := charNGrams("ab", 4); len(got) != 1 || got[0] != "ab" {
		t.Errorf("short input: %v", got)
	}
	if got := charNGrams("", 4); got != nil {
		t.Errorf("empty input: %v", got)
	}
}
