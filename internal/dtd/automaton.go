package dtd

// Content models are validated by compiling each children content model
// into a Glushkov position automaton: every NameParticle occurrence in
// the model becomes a position, and the model's first/follow/last sets
// define an NFA whose alphabet is the set of child element names. XML's
// determinism constraint would make the NFA a DFA, but we simulate the
// NFA with position sets so non-deterministic models also validate
// correctly (useful for loosened DTDs, whose rewritten models need not
// stay deterministic).

type automaton struct {
	names    []string // symbol (element name) of each position
	first    []int    // positions reachable from the start
	follow   [][]int  // follow[i] = positions reachable after position i
	last     []bool   // last[i]: position i may end a match
	nullable bool     // the empty sequence matches
}

// compile builds the Glushkov automaton for a particle tree.
func compile(model *Particle) *automaton {
	a := &automaton{}
	info := a.build(model)
	a.first = info.first
	a.nullable = info.nullable
	a.last = make([]bool, len(a.names))
	for _, i := range info.last {
		a.last[i] = true
	}
	return a
}

type glushkov struct {
	nullable    bool
	first, last []int
}

func (a *automaton) build(p *Particle) glushkov {
	var g glushkov
	switch p.Kind {
	case NameParticle:
		pos := len(a.names)
		a.names = append(a.names, p.Name)
		a.follow = append(a.follow, nil)
		g = glushkov{first: []int{pos}, last: []int{pos}}
	case ChoiceParticle:
		for _, c := range p.Children {
			cg := a.build(c)
			g.nullable = g.nullable || cg.nullable
			g.first = append(g.first, cg.first...)
			g.last = append(g.last, cg.last...)
		}
	case SeqParticle:
		g.nullable = true
		started := false
		for _, c := range p.Children {
			cg := a.build(c)
			// Everything that can end the sequence so far is followed
			// by everything that can start c.
			for _, l := range g.last {
				a.follow[l] = append(a.follow[l], cg.first...)
			}
			if !started {
				g.first = cg.first
				started = true
			} else if g.nullable {
				g.first = append(g.first, cg.first...)
			}
			if cg.nullable {
				g.last = append(g.last, cg.last...)
			} else {
				g.last = cg.last
			}
			g.nullable = g.nullable && cg.nullable
		}
	}
	switch p.Occ {
	case Opt:
		g.nullable = true
	case Star, Plus:
		for _, l := range g.last {
			a.follow[l] = append(a.follow[l], g.first...)
		}
		if p.Occ == Star {
			g.nullable = true
		}
	}
	return g
}

// matchState is the reusable working memory of one Glushkov
// simulation: the active position sets of the current and next step,
// and a membership flag per position that deduplicates next. Automata
// are shared between goroutines once compiled, so each validation owns
// its state; reused across the elements of a document it makes
// matching allocation-free.
type matchState struct {
	cur, next []int
	active    []bool
}

// matches reports whether the sequence of child element names is
// accepted by the content model, and on failure, the index of the first
// offending child (len(seq) if the sequence ended too early).
func (a *automaton) matches(seq []string, st *matchState) (bool, int) {
	if len(st.active) < len(a.names) {
		st.active = make([]bool, len(a.names))
	}
	// cur is the set of active positions; before the first symbol the
	// candidates are the model's first set instead.
	cur := st.cur[:0]
	for idx, sym := range seq {
		next := st.next[:0]
		step := func(f int) {
			if a.names[f] == sym && !st.active[f] {
				st.active[f] = true
				next = append(next, f)
			}
		}
		if idx == 0 {
			for _, f := range a.first {
				step(f)
			}
		} else {
			for _, pos := range cur {
				for _, f := range a.follow[pos] {
					step(f)
				}
			}
		}
		for _, f := range next {
			st.active[f] = false
		}
		st.cur, st.next = next, cur
		if len(next) == 0 {
			return false, idx
		}
		cur = next
	}
	if len(seq) == 0 {
		return a.nullable, 0
	}
	for _, pos := range cur {
		if a.last[pos] {
			return true, 0
		}
	}
	return false, len(seq)
}

// automatonFor returns the compiled automaton for e, building it on
// first use. ElementDecl values are not safe for concurrent first use;
// callers that share a DTD across goroutines should call
// (*DTD).CompileAll once after parsing.
func (e *ElementDecl) automatonFor() *automaton {
	if e.auto == nil && e.Kind == ElementContent {
		e.auto = compile(e.Model)
	}
	return e.auto
}

// CompileAll eagerly compiles every children content model in the DTD,
// making the DTD safe for concurrent validation.
func (d *DTD) CompileAll() {
	for _, e := range d.Elements {
		if e.Kind == ElementContent {
			e.automatonFor()
		}
	}
}

// AcceptsSequence reports whether the declared content model of element
// name accepts the given sequence of child element names. Undeclared
// elements accept nothing; ANY accepts everything; EMPTY accepts only
// the empty sequence; mixed content accepts any sequence over its
// declared names.
func (d *DTD) AcceptsSequence(name string, children []string) bool {
	e := d.Element(name)
	if e == nil {
		return false
	}
	switch e.Kind {
	case EmptyContent:
		return len(children) == 0
	case AnyContent:
		for _, c := range children {
			if d.Element(c) == nil {
				return false
			}
		}
		return true
	case MixedContent:
		for _, c := range children {
			if !contains(e.Mixed, c) {
				return false
			}
		}
		return true
	case ElementContent:
		ok, _ := e.automatonFor().matches(children, new(matchState))
		return ok
	}
	return false
}
