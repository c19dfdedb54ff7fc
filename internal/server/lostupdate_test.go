package server

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"xmlsec/internal/authz"
	"xmlsec/internal/subjects"
)

// TestConcurrentPutAndScriptLoseNoUpdate interleaves write-through-views
// PUTs and update scripts on one document. The two writers own disjoint
// subtrees, each hidden from the other, and every write inserts one
// uniquely named element: the PUT writer rebuilds its whole view with
// one more child of <pa>, the script writer inserts into <sb>. A PUT
// preserves what its view hides, so every acknowledged insertion from
// both writers must be in the final document. A PUT that judges and
// merges against a snapshot that a script commit has since replaced
// silently drops that commit's element.
func TestConcurrentPutAndScriptLoseNoUpdate(t *testing.T) {
	const uri = "lost.xml"
	const rounds = 150
	site := NewSite()
	for _, u := range []string{"P", "S"} {
		if err := site.Directory.AddUser(u); err != nil {
			t.Fatal(err)
		}
	}
	if err := site.Docs.AddDocument(uri, `<r><pa/><sb/></r>`); err != nil {
		t.Fatal(err)
	}
	for _, tuple := range []string{
		`<<P,*,*>,lost.xml:/r/pa,read,+,R>`,
		`<<P,*,*>,lost.xml:/r/pa,write,+,R>`,
		`<<S,*,*>,lost.xml:/r/sb,read,+,R>`,
		`<<S,*,*>,lost.xml:/r/sb,write,+,R>`,
	} {
		if err := site.Auths.Add(authz.InstanceLevel, authz.MustParse(tuple)); err != nil {
			t.Fatal(err)
		}
	}
	p := subjects.Requester{User: "P", IP: "10.0.0.1", Host: "p.example.org"}
	s := subjects.Requester{User: "S", IP: "10.0.0.2", Host: "s.example.org"}

	var wg sync.WaitGroup
	var putErr, scriptErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		var kids strings.Builder
		for i := 0; i < rounds; i++ {
			fmt.Fprintf(&kids, "<p%d/>", i)
			if err := site.Update(p, uri, "<r><pa>"+kids.String()+"</pa></r>"); err != nil {
				putErr = fmt.Errorf("PUT %d: %w", i, err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			script := fmt.Sprintf("insert-into /r/sb <s%d/>", i)
			if err := site.ApplyUpdate(context.Background(), s, uri, script); err != nil {
				scriptErr = fmt.Errorf("script %d: %w", i, err)
				return
			}
		}
	}()
	wg.Wait()
	if putErr != nil {
		t.Fatal(putErr)
	}
	if scriptErr != nil {
		t.Fatal(scriptErr)
	}

	final := site.Docs.Doc(uri).Source
	var lost []string
	for i := 0; i < rounds; i++ {
		for _, name := range []string{fmt.Sprintf("<p%d/>", i), fmt.Sprintf("<s%d/>", i)} {
			if !strings.Contains(final, name) {
				lost = append(lost, name)
			}
		}
	}
	if len(lost) > 0 {
		t.Fatalf("%d acknowledged insertions missing from the final document: %v", len(lost), lost)
	}
}
