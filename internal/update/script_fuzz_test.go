package update

import (
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"
)

// FuzzParseScript feeds arbitrary bytes to ParseScript. The write-ahead
// log journals Script.Canonical() and replay re-parses it, so every
// accepted script must survive that round trip:
//
//   - ParseScript never panics;
//   - the canonical form of an accepted script parses again;
//   - for valid UTF-8 input the re-parsed operations equal the original
//     ones;
//   - Canonical is a fixed point after one round trip.
//
// Invalid UTF-8 is the one case where the first round trip changes
// bytes: Canonical writes an invalid byte as the JSON escape \ufffd, and
// the re-parsed script then holds (and canonicalizes to) a raw U+FFFD.
// Replay still reproduces the document, because serialization maps
// invalid bytes to U+FFFD too; the seeds below pin that case.
func FuzzParseScript(f *testing.F) {
	for _, s := range []string{
		"delete //mail",
		"insert-into /site/regions <africa/>\nset-attr //item checked=1\nreplace-text /site/name new name",
		"# comment\n\nreplace-node //a <b x=\"1\">t</b>\ninsert-before //a <c/>\ninsert-after //a text<d/>",
		`{"ops":[{"op":"set-attr","target":"//item","name":"k","value":"a<b&c"}]}`,
		`{"ops":[{"op":"replace-text","target":"//t","text":"\ud800 lone surrogate"}]}`,
		"replace-text //t caf\xe9 invalid latin-1",
		"set-attr //i n=\xff\xfe",
		`{"ops":[]}`,
		"delete //a extra",
		"set-attr //a novalue",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		s, err := ParseScript(src)
		if err != nil {
			return
		}
		canon := s.Canonical()
		again, err := ParseScript(canon)
		if err != nil {
			t.Fatalf("canonical form of an accepted script does not parse: %v\ninput: %q\ncanonical: %s", err, src, canon)
		}
		if utf8.ValidString(src) && !reflect.DeepEqual(opArgs(s), opArgs(again)) {
			t.Fatalf("round trip changed the operations:\nbefore: %+v\nafter:  %+v", opArgs(s), opArgs(again))
		}
		third, err := ParseScript(again.Canonical())
		if err != nil {
			t.Fatalf("second canonical form does not parse: %v", err)
		}
		if again.Canonical() != third.Canonical() {
			t.Fatalf("Canonical is not a fixed point after one round trip:\n%s\n%s", again.Canonical(), third.Canonical())
		}
	})
}

// opArgs strips the compiled state Validate caches, leaving the
// operations as a script states them.
func opArgs(s *Script) []Op {
	out := make([]Op, len(s.Ops))
	for i, op := range s.Ops {
		out[i] = Op{Kind: op.Kind, Target: op.Target, XML: op.XML, Text: op.Text, Name: op.Name, Value: op.Value}
	}
	return out
}

// TestCanonicalInvalidUTF8 pins the one round trip that changes bytes:
// an invalid byte is journaled as the escape \ufffd, which re-parses to
// a raw U+FFFD, after which Canonical is stable.
func TestCanonicalInvalidUTF8(t *testing.T) {
	s, err := ParseScript("replace-text //t caf\xe9")
	if err != nil {
		t.Fatal(err)
	}
	first := s.Canonical()
	again, err := ParseScript(first)
	if err != nil {
		t.Fatal(err)
	}
	second := again.Canonical()
	if !strings.Contains(first, `caf\ufffd`) || !strings.Contains(second, "caf\ufffd") || first == second {
		t.Fatalf("first canonical %q, second %q", first, second)
	}
	third, err := ParseScript(second)
	if err != nil {
		t.Fatal(err)
	}
	if third.Canonical() != second {
		t.Fatalf("not a fixed point: %q then %q", second, third.Canonical())
	}
}
