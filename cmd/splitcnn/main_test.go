package main

import (
	"bytes"
	"go/parser"
	"go/token"
	"regexp"
	"slices"
	"testing"
)

// sameNames fails unless the first capture group of re, over text,
// yields each dispatched subcommand name exactly once.
func sameNames(t *testing.T, where string, re *regexp.Regexp, text string) {
	t.Helper()
	var got, want []string
	for _, m := range re.FindAllStringSubmatch(text, -1) {
		got = append(got, m[1])
	}
	for _, c := range subcommands {
		want = append(want, c.name)
	}
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("%s lists %v, dispatch table has %v", where, got, want)
	}
}

// TestUsageListsExactlyTheDispatchedSubcommands pins the CLI surface:
// every subcommand usage() prints is dispatched, and every dispatched
// name is printed.
func TestUsageListsExactlyTheDispatchedSubcommands(t *testing.T) {
	var buf bytes.Buffer
	usage(&buf)
	sameNames(t, "usage()", regexp.MustCompile(`(?m)^  (\S+)`), buf.String())
}

// TestPackageDocListsExactlyTheDispatchedSubcommands does the same for
// the command's package comment, which godoc renders as its manual.
func TestPackageDocListsExactlyTheDispatchedSubcommands(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, parser.ParseComments|parser.PackageClauseOnly)
	if err != nil {
		t.Fatal(err)
	}
	sameNames(t, "package doc", regexp.MustCompile(`(?m)^\tsplitcnn (\w+)`), f.Doc.Text())
}

func TestLookupRejectsUnknownSubcommand(t *testing.T) {
	for _, name := range []string{"loadtest", "benchdiff", "help", ""} {
		if lookup(name) != nil {
			t.Errorf("lookup(%q) found a subcommand", name)
		}
	}
}
