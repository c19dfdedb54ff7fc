// Package workload generates synthetic documents, DTDs, subject
// populations and authorization sets for the experiments (DESIGN.md
// E5-E8). The paper reports no testbed or datasets, so these generators
// define the measurement substrate; all generation is deterministic in
// the seed, so experiment rows are reproducible.
package workload

import (
	"fmt"
	"math/rand"
	"strings"

	"xmlsec/internal/authz"
	"xmlsec/internal/dom"
	"xmlsec/internal/dtd"
	"xmlsec/internal/subjects"
)

// DocConfig shapes a generated document tree.
type DocConfig struct {
	// Depth is the number of element levels below the root.
	Depth int
	// Fanout is the number of children per element.
	Fanout int
	// Attrs is the number of attributes per element.
	Attrs int
	// Labels is the size of the element-name alphabet per level; names
	// are "e<level>x<k mod Labels>", so paths remain selective.
	Labels int
	// Seed makes generation deterministic.
	Seed int64
}

// Norm fills zero fields with usable defaults.
func (c DocConfig) Norm() DocConfig {
	if c.Depth <= 0 {
		c.Depth = 4
	}
	if c.Fanout <= 0 {
		c.Fanout = 3
	}
	if c.Attrs < 0 {
		c.Attrs = 0
	}
	if c.Labels <= 0 {
		c.Labels = 3
	}
	return c
}

// ElemName returns the element name used at the given level for
// variant k.
func ElemName(level, k int) string {
	return fmt.Sprintf("e%dx%d", level, k)
}

// GenDocument builds a document of (Fanout^Depth)-ish elements: a root
// "root" whose subtree is a complete Fanout-ary tree of Depth levels.
// Every element carries Attrs attributes a0..a<n-1> with small integer
// values and one short text child at the leaves.
func GenDocument(cfg DocConfig) *dom.Document {
	cfg = cfg.Norm()
	rng := rand.New(rand.NewSource(cfg.Seed))
	doc := dom.NewDocument()
	root := dom.NewElement("root")
	doc.SetDocumentElement(root)
	var build func(parent *dom.Node, level int)
	build = func(parent *dom.Node, level int) {
		if level > cfg.Depth {
			parent.AppendChild(dom.NewText(fmt.Sprintf("v%d", rng.Intn(100))))
			return
		}
		for i := 0; i < cfg.Fanout; i++ {
			e := dom.NewElement(ElemName(level, i%cfg.Labels))
			for a := 0; a < cfg.Attrs; a++ {
				e.SetAttr(fmt.Sprintf("a%d", a), fmt.Sprintf("%d", rng.Intn(4)))
			}
			parent.AppendChild(e)
			build(e, level+1)
		}
	}
	build(root, 1)
	// Generated documents stand in for parsed ones, so they are
	// numbered and carry the same struct-of-arrays arena the parser
	// would have built.
	doc.BuildArena()
	return doc
}

// GenDTD produces a DTD that the documents of GenDocument are valid
// against: each level admits any sequence of the next level's labels,
// leaves hold PCDATA, and every attribute is declared CDATA #IMPLIED.
func GenDTD(cfg DocConfig) *dtd.DTD {
	cfg = cfg.Norm()
	var b strings.Builder
	// Root admits the level-1 labels.
	b.WriteString("<!ELEMENT root (")
	writeChoice(&b, 1, cfg.Labels)
	b.WriteString(")*>\n")
	for level := 1; level <= cfg.Depth; level++ {
		for k := 0; k < cfg.Labels; k++ {
			name := ElemName(level, k)
			if level == cfg.Depth {
				fmt.Fprintf(&b, "<!ELEMENT %s (#PCDATA)>\n", name)
			} else {
				fmt.Fprintf(&b, "<!ELEMENT %s (", name)
				writeChoice(&b, level+1, cfg.Labels)
				b.WriteString(")*>\n")
			}
			if cfg.Attrs > 0 {
				fmt.Fprintf(&b, "<!ATTLIST %s", name)
				for a := 0; a < cfg.Attrs; a++ {
					fmt.Fprintf(&b, " a%d CDATA #IMPLIED", a)
				}
				b.WriteString(">\n")
			}
		}
	}
	d := dtd.MustParse(b.String())
	d.Name = "root"
	return d
}

func writeChoice(b *strings.Builder, level, labels int) {
	for k := 0; k < labels; k++ {
		if k > 0 {
			b.WriteString("|")
		}
		b.WriteString(ElemName(level, k))
	}
}

// PopConfig shapes a generated subject population.
type PopConfig struct {
	// Users and Groups are the population sizes.
	Users, Groups int
	// MaxMemberships bounds the direct group memberships per user and
	// parent groups per group.
	MaxMemberships int
	// Seed makes generation deterministic.
	Seed int64
}

// Norm fills zero fields with usable defaults.
func (c PopConfig) Norm() PopConfig {
	if c.Users <= 0 {
		c.Users = 50
	}
	if c.Groups <= 0 {
		c.Groups = 10
	}
	if c.MaxMemberships <= 0 {
		c.MaxMemberships = 3
	}
	return c
}

// GenDirectory builds a user/group population: groups g0..gN nested
// acyclically (each group's parents have smaller indices), users
// u0..uM with random direct memberships.
func GenDirectory(cfg PopConfig) *subjects.Directory {
	cfg = cfg.Norm()
	rng := rand.New(rand.NewSource(cfg.Seed))
	d := subjects.NewDirectory()
	for g := 0; g < cfg.Groups; g++ {
		var parents []string
		if g > 0 {
			n := rng.Intn(cfg.MaxMemberships + 1)
			for i := 0; i < n; i++ {
				parents = append(parents, fmt.Sprintf("g%d", rng.Intn(g)))
			}
		}
		if err := d.AddGroup(fmt.Sprintf("g%d", g), parents...); err != nil {
			panic(err)
		}
	}
	for u := 0; u < cfg.Users; u++ {
		n := 1 + rng.Intn(cfg.MaxMemberships)
		var gs []string
		for i := 0; i < n; i++ {
			gs = append(gs, fmt.Sprintf("g%d", rng.Intn(cfg.Groups)))
		}
		if err := d.AddUser(fmt.Sprintf("u%d", u), gs...); err != nil {
			panic(err)
		}
	}
	return d
}

// AuthConfig shapes a generated authorization set.
type AuthConfig struct {
	// N is the number of authorizations.
	N int
	// Doc configures the documents the paths must address.
	Doc DocConfig
	// URI and DTDURI key the generated authorizations.
	URI, DTDURI string
	// SchemaFraction of the authorizations attach to the DTD
	// (0 ≤ f ≤ 1); weak types are never generated at schema level.
	SchemaFraction float64
	// NegativeFraction of the authorizations carry sign '-'.
	NegativeFraction float64
	// RecursiveFraction of the authorizations have a recursive type.
	RecursiveFraction float64
	// WeakFraction of the instance authorizations are weak.
	WeakFraction float64
	// PredicateFraction of the paths carry an attribute predicate.
	PredicateFraction float64
	// Pop configures the subject population referenced by the
	// authorizations.
	Pop PopConfig
	// Seed makes generation deterministic.
	Seed int64
}

// Norm fills zero fields with usable defaults.
func (c AuthConfig) Norm() AuthConfig {
	if c.N <= 0 {
		c.N = 16
	}
	if c.URI == "" {
		c.URI = "bench.xml"
	}
	if c.DTDURI == "" {
		c.DTDURI = "bench.dtd"
	}
	if c.RecursiveFraction == 0 {
		c.RecursiveFraction = 0.5
	}
	if c.NegativeFraction == 0 {
		c.NegativeFraction = 0.3
	}
	c.Doc = c.Doc.Norm()
	c.Pop = c.Pop.Norm()
	return c
}

// GenAuths generates N authorizations whose paths address the documents
// of GenDocument(cfg.Doc) and whose subjects come from the population of
// GenDirectory(cfg.Pop): a mix of group-wide, user-specific, and
// location-restricted subjects with absolute, descendant, and
// predicated paths.
func GenAuths(cfg AuthConfig) (instance, schema []*authz.Authorization) {
	cfg = cfg.Norm()
	rng := rand.New(rand.NewSource(cfg.Seed))
	for i := 0; i < cfg.N; i++ {
		sub := genSubject(rng, cfg.Pop)
		pe := genPath(rng, cfg)
		sign := authz.Permit
		if rng.Float64() < cfg.NegativeFraction {
			sign = authz.Deny
		}
		atSchema := rng.Float64() < cfg.SchemaFraction
		typ := authz.Local
		if rng.Float64() < cfg.RecursiveFraction {
			typ = authz.Recursive
		}
		uri := cfg.URI
		if atSchema {
			uri = cfg.DTDURI
		} else if rng.Float64() < cfg.WeakFraction {
			if typ == authz.Local {
				typ = authz.LocalWeak
			} else {
				typ = authz.RecursiveWeak
			}
		}
		a, err := authz.New(sub, authz.Object{URI: uri, PathExpr: pe}, authz.ReadAction, sign, typ)
		if err != nil {
			panic(err)
		}
		if atSchema {
			schema = append(schema, a)
		} else {
			instance = append(instance, a)
		}
	}
	return instance, schema
}

func genSubject(rng *rand.Rand, pop PopConfig) subjects.Subject {
	var ug string
	switch rng.Intn(3) {
	case 0:
		ug = "Public"
	case 1:
		ug = fmt.Sprintf("g%d", rng.Intn(pop.Groups))
	default:
		ug = fmt.Sprintf("u%d", rng.Intn(pop.Users))
	}
	ip := "*"
	if rng.Intn(4) == 0 {
		ip = fmt.Sprintf("10.%d.*", rng.Intn(4))
	}
	sn := "*"
	if rng.Intn(4) == 0 {
		sn = fmt.Sprintf("*.dom%d.org", rng.Intn(4))
	}
	return subjects.MustNewSubject(ug, ip, sn)
}

// genPath builds a path addressing the synthetic document: an absolute
// prefix of levels, optionally a // skip, optionally a predicate.
func genPath(rng *rand.Rand, cfg AuthConfig) string {
	depth := 1 + rng.Intn(cfg.Doc.Depth)
	var b strings.Builder
	if rng.Intn(4) == 0 && depth >= 2 {
		// Descendant form: //e<depth>x<k>.
		fmt.Fprintf(&b, "//%s", ElemName(depth, rng.Intn(cfg.Doc.Labels)))
	} else {
		b.WriteString("/root")
		for l := 1; l <= depth; l++ {
			fmt.Fprintf(&b, "/%s", ElemName(l, rng.Intn(cfg.Doc.Labels)))
		}
	}
	if cfg.Doc.Attrs > 0 && rng.Float64() < cfg.PredicateFraction {
		fmt.Fprintf(&b, "[./@a%d='%d']", rng.Intn(cfg.Doc.Attrs), rng.Intn(4))
	}
	if cfg.Doc.Attrs > 0 && rng.Intn(8) == 0 {
		fmt.Fprintf(&b, "/@a%d", rng.Intn(cfg.Doc.Attrs))
	}
	return b.String()
}

// GenRequester returns a deterministic requester from the population.
func GenRequester(pop PopConfig, seed int64) subjects.Requester {
	pop = pop.Norm()
	rng := rand.New(rand.NewSource(seed))
	return subjects.Requester{
		User: fmt.Sprintf("u%d", rng.Intn(pop.Users)),
		IP:   fmt.Sprintf("10.%d.%d.%d", rng.Intn(4), rng.Intn(256), rng.Intn(256)),
		Host: fmt.Sprintf("h%d.dom%d.org", rng.Intn(100), rng.Intn(4)),
	}
}
