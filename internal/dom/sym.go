package dom

// Sym is an interned name: an index into the owning Arena's symbol
// table. Element tag names, attribute names and processing-instruction
// targets repeat heavily within one document (a 10k-node document
// typically has a few dozen distinct names), so the arena stores one
// int32 per node instead of one string header, and name equality is an
// integer comparison. Sym 0 is always the empty string.
type Sym int32

// symTab interns the distinct names of one arena. It is built once at
// arena construction and read-only afterwards, so concurrent readers
// need no lock. An arena spliced from another shares its table until
// it needs a name the table lacks, and then extends a copy.
type symTab struct {
	names []string
	index map[string]Sym
}

func newSymTab() *symTab {
	return &symTab{names: []string{""}, index: map[string]Sym{"": 0}}
}

// intern returns the symbol for name, adding it on first use.
func (t *symTab) intern(name string) Sym {
	if s, ok := t.index[name]; ok {
		return s
	}
	s := Sym(len(t.names))
	t.names = append(t.names, name)
	t.index[name] = s
	return s
}

// clone returns a copy of the table that can be extended without
// changing t.
func (t *symTab) clone() *symTab {
	c := &symTab{names: make([]string, len(t.names), len(t.names)+8), index: make(map[string]Sym, len(t.index)+8)}
	copy(c.names, t.names)
	for k, v := range t.index {
		c.index[k] = v
	}
	return c
}

// name returns the string for symbol s.
func (t *symTab) name(s Sym) string { return t.names[s] }

// Len returns the number of distinct interned names (including "").
func (t *symTab) Len() int { return len(t.names) }
