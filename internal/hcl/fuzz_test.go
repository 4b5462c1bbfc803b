package hcl

import (
	"testing"
	"time"
)

// truncatedInputs are short sources that end inside a construct. Each must
// parse to diagnostics, not loop at end of input.
var truncatedInputs = []string{
	"x = {",
	"x = {a",
	"x = {a =",
	"x = {a = 1,",
	"x = {(",
	"x = {for",
	"x = {for k, v in y : k => v",
	"x = [",
	"x = [1,",
	"x = [for",
	"x = f(",
	"x = f(1,",
	"x = (",
	"x = a[",
	"x = a.",
	"x = a[*].",
	"x = \"${",
	"x = \"${ {",
	"x = <<EOT",
	"x = 1 ? ",
	"a {",
	"a \"b\" {",
	"a \"b\" { x = {",
}

// TestParseTruncatedInputTerminates fails within seconds, rather than
// hanging the suite, if any truncated input spins the parser.
func TestParseTruncatedInputTerminates(t *testing.T) {
	for _, src := range truncatedInputs {
		done := make(chan Diagnostics, 1)
		go func() {
			_, diags := Parse("trunc.ccl", src)
			done <- diags
		}()
		select {
		case diags := <-done:
			if !diags.HasErrors() {
				t.Errorf("Parse(%q) reported no error", src)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("Parse(%q) did not return within 5s", src)
		}
	}
}

// FuzzParse feeds arbitrary source to the parser and the expression parser.
// Invariant: both return (never hang, never panic), and a file with no
// diagnostics has a body.
func FuzzParse(f *testing.F) {
	for _, src := range truncatedInputs {
		f.Add(src)
	}
	f.Add(`resource "aws_vpc" "main" {
  name = "main-${var.env}"
  tags = { for k, v in var.tags : k => upper(v) if v != "" }
  ids  = aws_subnet.s[*].id
}
`)
	f.Fuzz(func(t *testing.T, src string) {
		file, diags := Parse("fuzz.ccl", src)
		if !diags.HasErrors() && file.Body == nil {
			t.Fatal("no diagnostics and no body")
		}
		ParseExpression("fuzz.ccl", src)
	})
}
