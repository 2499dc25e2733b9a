// Package feature implements Hazy's feature functions (paper App.
// A.2): user-registered triples (computeStats, computeStatsInc,
// computeFeature) that turn entity tuples into feature vectors, plus
// the linearized-kernel machinery of App. B.5.3 (random Fourier
// features for shift-invariant kernels).
package feature

import (
	"slices"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"
)

// Tokenize lowercases s and splits it into maximal runs of letters
// and digits — the document model used by the bag-of-words feature
// functions.
func Tokenize(s string) []string { return appendTokens(nil, s) }

// appendTokens appends Tokenize(s) to dst. ASCII input is cut without
// copying: a token is a substring of s unless it has an upper-case
// letter to fold. Input with any byte ≥ 0x80 takes the rune-by-rune
// unicode path.
func appendTokens(dst []string, s string) []string {
	n, start, upper := len(dst), -1, false
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c >= utf8.RuneSelf:
			return appendTokensUnicode(dst[:n], s)
		case 'a' <= c && c <= 'z' || '0' <= c && c <= '9':
			if start < 0 {
				start = i
			}
		case 'A' <= c && c <= 'Z':
			if start < 0 {
				start = i
			}
			upper = true
		case start >= 0:
			dst = append(dst, asciiToken(s[start:i], upper))
			start, upper = -1, false
		}
	}
	if start >= 0 {
		dst = append(dst, asciiToken(s[start:], upper))
	}
	return dst
}

func asciiToken(tok string, upper bool) string {
	if upper {
		return strings.ToLower(tok)
	}
	return tok
}

func appendTokensUnicode(dst []string, s string) []string {
	var b strings.Builder
	for _, r := range s {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			b.WriteRune(unicode.ToLower(r))
		} else if b.Len() > 0 {
			dst = append(dst, b.String())
			b.Reset()
		}
	}
	if b.Len() > 0 {
		dst = append(dst, b.String())
	}
	return dst
}

// Vocab maps terms to dense component indices. It is safe for
// concurrent use; once Frozen, unknown terms map to -1 instead of
// being assigned new indices.
type Vocab struct {
	mu     sync.RWMutex
	index  map[string]int32
	terms  []string
	frozen bool
}

// NewVocab returns an empty vocabulary.
func NewVocab() *Vocab {
	return &Vocab{index: make(map[string]int32)}
}

// Lookup returns the index for term, assigning a fresh one unless the
// vocabulary is frozen (then -1 for unknown terms).
func (v *Vocab) Lookup(term string) int32 {
	var i [1]int32
	return v.add(i[:0], []string{term})[0]
}

// find appends the index of each of toks to dst, -1 for a term the
// vocabulary lacks, under one read lock. It also reports whether the
// vocabulary is frozen.
func (v *Vocab) find(dst []int32, toks []string) ([]int32, bool) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	for _, t := range toks {
		i, ok := v.index[t]
		if !ok {
			i = -1
		}
		dst = append(dst, i)
	}
	return dst, v.frozen
}

// add is find, except that a term the vocabulary lacks is assigned the
// next index, in token order, unless the vocabulary is frozen.
func (v *Vocab) add(dst []int32, toks []string) []int32 {
	n := len(dst)
	dst, frozen := v.find(dst, toks)
	if frozen || !slices.Contains(dst[n:], -1) {
		return dst
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	for k, t := range toks {
		if dst[n+k] < 0 {
			dst[n+k] = v.assign(t)
		}
	}
	return dst
}

// assign returns term's index, giving it the next one if it has none;
// v.mu must be held for writing.
func (v *Vocab) assign(term string) int32 {
	if i, ok := v.index[term]; ok {
		return i
	}
	if v.frozen {
		return -1
	}
	term = strings.Clone(term) // a token may be a substring of its whole document
	i := int32(len(v.terms))
	v.index[term] = i
	v.terms = append(v.terms, term)
	return i
}

// Term returns the term at index i, or "" if out of range.
func (v *Vocab) Term(i int32) string {
	v.mu.RLock()
	defer v.mu.RUnlock()
	if i < 0 || int(i) >= len(v.terms) {
		return ""
	}
	return v.terms[i]
}

// Size returns the number of distinct terms.
func (v *Vocab) Size() int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return len(v.terms)
}

// Freeze stops the vocabulary from growing.
func (v *Vocab) Freeze() {
	v.mu.Lock()
	v.frozen = true
	v.mu.Unlock()
}
