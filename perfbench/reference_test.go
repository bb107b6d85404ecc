package main

import (
	"encoding/json"
	"flag"
	"os"
	"testing"

	"searchspace"
	"searchspace/internal/workloads"
)

var updateReference = flag.Bool("update-reference", false, "rewrite testdata/reference.json from chain-of-trees builds")

// TestReferenceFromChainOfTrees recomputes every reference answer with
// the chain-of-trees baseline, which shares no code with the optimized
// solver, and checks the committed file against it. The ordered
// checksums must equal the golden enumeration suite's optimized
// single-worker records.
func TestReferenceFromChainOfTrees(t *testing.T) {
	raw, err := os.ReadFile("../testdata/golden_enum.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden []struct {
		Workload, Method string
		Workers, Rows    int
		SHA256           string
	}
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	ordered := map[string]string{}
	for _, g := range golden {
		if g.Method == "optimized" && g.Workers == 1 {
			ordered[g.Workload] = g.SHA256
		}
	}

	ref := reference{Scheme: "sha256 over parameter names (NUL-terminated) then each column's domain indices as little-endian uint32; canonical = rows sorted by domain index in declaration order"}
	for _, def := range workloads.RealWorld() {
		ss, _, err := searchspace.FromDefinition(def).BuildWith(searchspace.BuildOpts{Method: searchspace.ChainOfTrees, Workers: 2})
		if err != nil {
			t.Fatalf("%s: %v", def.Name, err)
		}
		canon, err := canonicalChecksum(def, ss.Columns())
		if err != nil {
			t.Fatal(err)
		}
		ref.Spaces = append(ref.Spaces, refSpace{Name: def.Name, Rows: ss.Size(), Canonical: canon, Ordered: ordered[def.Name]})
	}
	const path = "testdata/reference.json"
	if *updateReference {
		out, err := json.MarshalIndent(ref, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	committed, err := loadReference(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range ref.Spaces {
		if got := committed[want.Name]; got != want {
			t.Errorf("%s: committed %+v, chain-of-trees gives %+v", want.Name, got, want)
		}
	}
}
