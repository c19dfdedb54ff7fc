package dtd

import (
	"math/rand"
	"regexp"
	"strings"
	"testing"
)

// The content-model oracle: a Particle becomes a Go regexp over the
// child names, each written as "name," so a sequence is one string.
// It shares nothing with the Glushkov construction.

func occRegexp(body string, occ Occurrence) string {
	return "(?:" + body + ")" + occ.String()
}

// modelRegexp matches exactly the child sequences p accepts.
func modelRegexp(p *Particle) string {
	switch p.Kind {
	case NameParticle:
		return occRegexp(regexp.QuoteMeta(p.Name+","), p.Occ)
	case SeqParticle:
		var b strings.Builder
		for _, c := range p.Children {
			b.WriteString(modelRegexp(c))
		}
		return occRegexp(b.String(), p.Occ)
	default:
		alts := make([]string, len(p.Children))
		for i, c := range p.Children {
			alts[i] = modelRegexp(c)
		}
		return occRegexp(strings.Join(alts, "|"), p.Occ)
	}
}

// prefixRegexp matches exactly the prefixes of the sequences p
// accepts: pref(x) = ε|x, pref(r₁r₂…) = pref(r₁) | r₁pref(r₂) | …,
// pref(r₁|r₂) = pref(r₁)|pref(r₂), and with an occurrence indicator
// pref(r?) = pref(r), pref(r*) = pref(r+) = r*pref(r).
func prefixRegexp(p *Particle) string {
	once := *p
	once.Occ = Once
	var body string
	switch p.Kind {
	case NameParticle:
		body = "|" + modelRegexp(&once)
	case SeqParticle:
		alts := make([]string, len(p.Children))
		done := ""
		for i, c := range p.Children {
			alts[i] = done + "(?:" + prefixRegexp(c) + ")"
			done += modelRegexp(c)
		}
		body = strings.Join(alts, "|")
	default:
		alts := make([]string, len(p.Children))
		for i, c := range p.Children {
			alts[i] = prefixRegexp(c)
		}
		body = strings.Join(alts, "|")
	}
	if p.Occ == Star || p.Occ == Plus {
		return "(?:" + modelRegexp(&once) + ")*(?:" + body + ")"
	}
	return body
}

var oracleNames = []string{"a", "b", "c"}

func randomParticle(rng *rand.Rand, depth int) *Particle {
	occs := []Occurrence{Once, Opt, Star, Plus}
	p := &Particle{Occ: occs[rng.Intn(len(occs))]}
	if depth == 0 || rng.Intn(3) == 0 {
		p.Kind, p.Name = NameParticle, oracleNames[rng.Intn(len(oracleNames))]
		return p
	}
	p.Kind = SeqParticle
	if rng.Intn(2) == 0 {
		p.Kind = ChoiceParticle
	}
	for n := 1 + rng.Intn(3); n > 0; n-- {
		p.Children = append(p.Children, randomParticle(rng, depth-1))
	}
	return p
}

// sampleWord draws a sequence from p's language, so the oracle sees
// accepted inputs as well as random (mostly rejected) ones.
func sampleWord(rng *rand.Rand, p *Particle, out []string) []string {
	reps := 1
	switch p.Occ {
	case Opt:
		reps = rng.Intn(2)
	case Star:
		reps = rng.Intn(3)
	case Plus:
		reps = 1 + rng.Intn(2)
	}
	for ; reps > 0; reps-- {
		switch p.Kind {
		case NameParticle:
			out = append(out, p.Name)
		case SeqParticle:
			for _, c := range p.Children {
				out = sampleWord(rng, c, out)
			}
		default:
			out = sampleWord(rng, p.Children[rng.Intn(len(p.Children))], out)
		}
	}
	return out
}

// TestAutomatonMatchesRegexpOracle compares the Glushkov matcher with
// the regexp oracle on random models: acceptance, and for a rejected
// sequence the index of the first child no completion can follow.
// One match state is reused throughout, as a validation reuses it
// across elements.
func TestAutomatonMatchesRegexpOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var st matchState
	for trial := 0; trial < 400; trial++ {
		model := randomParticle(rng, 3)
		auto := compile(model)
		full := regexp.MustCompile("^(?:" + modelRegexp(model) + ")$")
		prefix := regexp.MustCompile("^(?:" + prefixRegexp(model) + ")$")
		for k := 0; k < 30; k++ {
			var seq []string
			if k%3 == 0 {
				seq = sampleWord(rng, model, nil)
			} else {
				for n := rng.Intn(7); n > 0; n-- {
					seq = append(seq, append(oracleNames, "d")[rng.Intn(len(oracleNames)+1)])
				}
			}
			enc := func(s []string) string {
				if len(s) == 0 {
					return ""
				}
				return strings.Join(s, ",") + ","
			}
			wantOK := full.MatchString(enc(seq))
			wantAt := 0
			if !wantOK {
				wantAt = len(seq)
				for i := range seq {
					if !prefix.MatchString(enc(seq[:i+1])) {
						wantAt = i
						break
					}
				}
			}
			gotOK, gotAt := auto.matches(seq, &st)
			if gotOK != wantOK || gotAt != wantAt {
				t.Fatalf("model %s, sequence %v: matches = (%v, %d), oracle = (%v, %d)",
					model, seq, gotOK, gotAt, wantOK, wantAt)
			}
		}
	}
}
