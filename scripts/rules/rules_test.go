package main

import "testing"

// TestRules runs the whole check over the module, so `go test ./...`
// enforces the written rules too.
func TestRules(t *testing.T) {
	findings, err := check("../..")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Error(f)
	}
}
