package embed

import (
	"math"
	"sort"
	"sync"

	"laminar/internal/vecmath"
)

// Dim is the embedding dimensionality used by every model.
const Dim = 256

// Vector is a dense embedding. Model outputs are L2-normalized, so cosine
// similarity reduces to a dot product.
type Vector []float32

// Config describes one embedding model's behaviour. The fields correspond to
// properties of the original transformer models that determine their
// relative strengths in the paper's evaluation.
type Config struct {
	// Name is the HuggingFace-style model id.
	Name string
	// Seed isolates the model's feature space (two models embed the same
	// token differently, as different pretrained weights would).
	Seed uint64
	// SplitIdentifiers enables camelCase/snake_case subtokenization (code
	// pretraining); without it identifier renames destroy the signal.
	SplitIdentifiers bool
	// DropStopwords removes NL stopwords before embedding.
	DropStopwords bool
	// KeywordWeight scales Python keywords (code-aware models down-weight
	// them; 1.0 = neutral).
	KeywordWeight float64
	// CharNGram adds character n-gram features of that order (0 disables).
	// Strong n-grams make a lexical retriever (ReACC-style).
	CharNGram int
	// NGramWeight scales the n-gram feature block relative to tokens.
	NGramWeight float64
	// Align maps NL words to code-domain words — the effect of cross-modal
	// fine-tuning on (docstring, code) pairs such as AdvTest.
	Align map[string]string
	// AlignWeight scales injected aligned tokens.
	AlignWeight float64
	// Noise replaces a fraction of the signal with an input-dependent
	// pseudo-random direction, modelling domain mismatch: higher noise
	// means two related texts agree less.
	Noise float64
	// TokenDropout deterministically ignores a fraction of tokens,
	// modelling tokenizers that fragment code (NL-only models).
	TokenDropout float64
	// NumberWeight scales purely numeric tokens. Clone-detection
	// fine-tuning learns that literals identify a problem across
	// structurally different solutions (1.0 = neutral).
	NumberWeight float64
}

// Model is a ready-to-use embedding model.
type Model struct {
	cfg   Config
	cache sync.Map // token → Vector (unnormalized direction)
}

// New instantiates a model from a config.
func New(cfg Config) *Model {
	if cfg.KeywordWeight == 0 {
		cfg.KeywordWeight = 1
	}
	if cfg.NGramWeight == 0 {
		cfg.NGramWeight = 1
	}
	if cfg.AlignWeight == 0 {
		cfg.AlignWeight = 1
	}
	if cfg.NumberWeight == 0 {
		cfg.NumberWeight = 1
	}
	return &Model{cfg: cfg}
}

// Name returns the model id.
func (m *Model) Name() string { return m.cfg.Name }

// splitmix64 is a fast deterministic PRNG step.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func hashString(seed uint64, s string) uint64 {
	h := seed ^ 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// direction returns newDirection(feature), memoised: token and n-gram
// features recur across inputs, so each is computed once.
func (m *Model) direction(feature string) Vector {
	if v, ok := m.cache.Load(feature); ok {
		return v.(Vector)
	}
	v := m.newDirection(feature)
	m.cache.Store(feature, v)
	return v
}

// newDirection computes the deterministic pseudo-random unit direction for
// a feature string under this model's seed.
func (m *Model) newDirection(feature string) Vector {
	h := hashString(m.cfg.Seed, feature)
	v := make(Vector, Dim)
	state := h
	var norm float64
	for i := 0; i < Dim; i += 2 {
		state = splitmix64(state)
		// Box-Muller from two uniform halves of the state.
		u1 := float64(state>>11) / float64(1<<53)
		if u1 < 1e-12 {
			u1 = 1e-12
		}
		state = splitmix64(state)
		u2 := float64(state>>11) / float64(1<<53)
		r := math.Sqrt(-2 * math.Log(u1))
		g1 := r * math.Cos(2*math.Pi*u2)
		g2 := r * math.Sin(2*math.Pi*u2)
		v[i] = float32(g1)
		if i+1 < Dim {
			v[i+1] = float32(g2)
		}
		norm += g1*g1 + g2*g2
	}
	norm = math.Sqrt(norm)
	if norm > 0 {
		for i := range v {
			v[i] = float32(float64(v[i]) / norm)
		}
	}
	return v
}

// dropToken reports whether this model's tokenizer loses the token
// (deterministic per token, independent of position).
func (m *Model) dropToken(tok string) bool {
	if m.cfg.TokenDropout <= 0 {
		return false
	}
	h := hashString(m.cfg.Seed^0xD09, tok)
	return float64(h%10000)/10000 < m.cfg.TokenDropout
}

// Embed maps text to a unit vector.
func (m *Model) Embed(text string) Vector {
	tokens := Tokenize(text, m.cfg.SplitIdentifiers)
	acc := make([]float64, Dim)
	// token features with log-scaled term frequency
	tf := map[string]int{}
	var order []string
	for _, t := range tokens {
		if m.cfg.DropStopwords && nlStopwords[t] {
			continue
		}
		if m.dropToken(t) {
			continue
		}
		if tf[t] == 0 {
			order = append(order, t)
		}
		tf[t]++
	}
	for _, t := range order {
		w := 1 + math.Log(float64(tf[t]))
		if pythonKeywords[t] {
			w *= m.cfg.KeywordWeight
		}
		if isNumericToken(t) {
			w *= m.cfg.NumberWeight
		}
		dir := m.direction("tok:" + t)
		for i := range acc {
			acc[i] += w * float64(dir[i])
		}
		// cross-modal alignment: inject the code-domain twin of NL words
		if m.cfg.Align != nil {
			if twin, ok := m.cfg.Align[t]; ok && twin != t {
				adir := m.direction("tok:" + twin)
				aw := w * m.cfg.AlignWeight
				for i := range acc {
					acc[i] += aw * float64(adir[i])
				}
			}
		}
	}
	// character n-gram lexical block
	if m.cfg.CharNGram > 0 {
		grams := charNGrams(text, m.cfg.CharNGram)
		if len(grams) > 0 {
			gw := m.cfg.NGramWeight / math.Sqrt(float64(len(grams)))
			for _, g := range grams {
				dir := m.direction("ng:" + g)
				for i := range acc {
					acc[i] += gw * float64(dir[i])
				}
			}
		}
	}
	// input-dependent noise: fraction of the signal norm pointed in a
	// direction that depends on the exact input text. It is not memoised:
	// a text's noise direction serves only that text, so a cache of them
	// would grow with every distinct input and rarely be hit.
	sig := l2(acc)
	if m.cfg.Noise > 0 && sig > 0 {
		nd := m.newDirection("noise:" + text)
		nw := m.cfg.Noise * sig
		for i := range acc {
			acc[i] += nw * float64(nd[i])
		}
	}
	out := make(Vector, Dim)
	norm := l2(acc)
	if norm == 0 {
		// Degenerate input: a stable arbitrary unit vector.
		return m.direction("empty")
	}
	for i := range acc {
		out[i] = float32(acc[i] / norm)
	}
	return out
}

func isNumericToken(t string) bool {
	if t == "" {
		return false
	}
	for i := 0; i < len(t); i++ {
		if t[i] < '0' || t[i] > '9' {
			return false
		}
	}
	return true
}

func l2(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// Cosine returns the cosine similarity of two embeddings (dot product for
// unit vectors). It delegates to the shared scoring kernel, which keeps
// the historic contract: a float64 dot product over the common prefix,
// bit-identical to the scalar loop this function used to carry.
func Cosine(a, b Vector) float64 {
	return vecmath.Dot(a, b)
}

// Rank orders candidate embeddings by similarity to the query, descending.
// Returns candidate indices and scores.
func Rank(query Vector, candidates []Vector) ([]int, []float64) {
	type scored struct {
		idx   int
		score float64
	}
	out := make([]scored, len(candidates))
	for i, c := range candidates {
		out[i] = scored{idx: i, score: Cosine(query, c)}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].score != out[j].score {
			return out[i].score > out[j].score
		}
		return out[i].idx < out[j].idx
	})
	idxs := make([]int, len(out))
	scores := make([]float64, len(out))
	for i, s := range out {
		idxs[i] = s.idx
		scores[i] = s.score
	}
	return idxs, scores
}
