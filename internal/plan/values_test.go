package plan

import (
	"context"
	"testing"

	"cloudless/internal/config"
	"cloudless/internal/eval"
	"cloudless/internal/state"
)

func expandForValues(t *testing.T, src string) *config.Expansion {
	t.Helper()
	m, diags := config.Load(map[string]string{"main.ccl": src})
	if diags.HasErrors() {
		t.Fatal(diags.Error())
	}
	ex, diags := config.Expand(m, nil, nil)
	if diags.HasErrors() {
		t.Fatal(diags.Error())
	}
	return ex
}

const valuesConfig = `
resource "aws_vpc" "main" {
  name       = "main"
  cidr_block = "10.0.0.0/16"
}

resource "aws_subnet" "s" {
  count      = 3
  vpc_id     = aws_vpc.main.id
  cidr_block = "10.0.1.0/24"
}

resource "aws_storage_bucket" "kv" {
  for_each = { a = "x", b = "y" }
  name     = "bucket-${each.key}"
}

data "aws_region" "current" {}

resource "aws_security_group" "reader" {
  name          = "reader-${data.aws_region.current.name}"
  vpc_id        = aws_vpc.main.id
  ingress_ports = [length(aws_subnet.s), length(aws_storage_bucket.kv)]
}
`

// readerOf returns the instance of valuesConfig whose scope references every
// group the tests read: a scope exposes only what its instance references.
func readerOf(ex *config.Expansion) *config.Instance {
	return ex.ByAddr["aws_security_group.reader"]
}

func TestValueStoreCacheInvalidation(t *testing.T) {
	ex := expandForValues(t, valuesConfig)
	vs := NewValueStore(ex)
	reader := readerOf(ex)

	// Before any write, everything is unknown.
	scope := vs.ScopeFor(reader)
	v, _ := scope.Lookup("aws_vpc")
	got, err := v.GetAttr("main")
	if err != nil || !got.IsUnknown() {
		t.Fatalf("pre-write value = %v, %v", got, err)
	}

	// Write, then the scope must expose the new value (cache invalidated).
	vs.Set("aws_vpc.main", eval.Object(map[string]eval.Value{"id": eval.String("vpc-1")}))
	scope = vs.ScopeFor(reader)
	v, _ = scope.Lookup("aws_vpc")
	got, _ = v.GetAttr("main")
	id, err := got.GetAttr("id")
	if err != nil || id.AsString() != "vpc-1" {
		t.Fatalf("post-write id = %v, %v", id, err)
	}

	// Unrelated groups stay assembled across further writes: writing subnet
	// values must not disturb the vpc root.
	vs.Set("aws_subnet.s[1]", eval.Object(map[string]eval.Value{"id": eval.String("sub-1")}))
	scope = vs.ScopeFor(reader)
	v, _ = scope.Lookup("aws_vpc")
	got, _ = v.GetAttr("main")
	if id, _ := got.GetAttr("id"); id.AsString() != "vpc-1" {
		t.Fatal("vpc value lost after unrelated write")
	}
}

func TestValueStoreCountGroupAssembly(t *testing.T) {
	ex := expandForValues(t, valuesConfig)
	vs := NewValueStore(ex)
	vs.Set("aws_subnet.s[0]", eval.Object(map[string]eval.Value{"id": eval.String("sub-0")}))
	vs.Set("aws_subnet.s[2]", eval.Object(map[string]eval.Value{"id": eval.String("sub-2")}))

	scope := vs.ScopeFor(readerOf(ex))
	root, _ := scope.Lookup("aws_subnet")
	group, err := root.GetAttr("s")
	if err != nil || group.Kind() != eval.KindList {
		t.Fatalf("subnet group = %v, %v", group, err)
	}
	list := group.AsList()
	if len(list) != 3 {
		t.Fatalf("list len = %d", len(list))
	}
	if id, _ := list[0].GetAttr("id"); id.AsString() != "sub-0" {
		t.Errorf("s[0] = %v", list[0])
	}
	// The unwritten middle element is unknown, not missing.
	if !list[1].IsUnknown() {
		t.Errorf("s[1] = %v, want unknown", list[1])
	}
	if id, _ := list[2].GetAttr("id"); id.AsString() != "sub-2" {
		t.Errorf("s[2] = %v", list[2])
	}
}

func TestValueStoreForEachGroupAssembly(t *testing.T) {
	ex := expandForValues(t, valuesConfig)
	vs := NewValueStore(ex)
	vs.Set(`aws_storage_bucket.kv["a"]`, eval.Object(map[string]eval.Value{"id": eval.String("bkt-a")}))

	scope := vs.ScopeFor(readerOf(ex))
	root, _ := scope.Lookup("aws_storage_bucket")
	group, err := root.GetAttr("kv")
	if err != nil || group.Kind() != eval.KindObject {
		t.Fatalf("kv group = %v, %v", group, err)
	}
	a, err := group.Index(eval.String("a"))
	if err != nil {
		t.Fatal(err)
	}
	if id, _ := a.GetAttr("id"); id.AsString() != "bkt-a" {
		t.Errorf("kv[a] = %v", a)
	}
	b, _ := group.Index(eval.String("b"))
	if !b.IsUnknown() {
		t.Errorf("kv[b] = %v, want unknown", b)
	}
}

func TestValueStoreDataRoot(t *testing.T) {
	ex := expandForValues(t, valuesConfig)
	vs := NewValueStore(ex)
	vs.Set("data.aws_region.current", eval.Object(map[string]eval.Value{"name": eval.String("us-east-1")}))
	scope := vs.ScopeFor(readerOf(ex))
	data, ok := scope.Lookup("data")
	if !ok {
		t.Fatal("data root missing")
	}
	region, err := data.GetAttr("aws_region")
	if err != nil {
		t.Fatal(err)
	}
	cur, _ := region.GetAttr("current")
	if name, _ := cur.GetAttr("name"); name.AsString() != "us-east-1" {
		t.Errorf("data value = %v", cur)
	}
}

func TestValueStoreSetUnindexedAddrIsSafe(t *testing.T) {
	// Destroy plans use an empty store and Set addresses with no
	// configuration behind them; that must not panic or corrupt anything.
	vs := NewEmptyValueStore()
	vs.Set("aws_vpc.ghost", eval.Object(map[string]eval.Value{"id": eval.String("x")}))
	if v, ok := vs.Get("aws_vpc.ghost"); !ok || v.IsUnknown() {
		t.Fatalf("get = %v, %v", v, ok)
	}
}

// TestScopeReferencePinned pins what references outside the named-group
// form evaluate to: scopes expose only what an instance references, and
// each of these must still read as it does against the module's full roots
// (the same diagnostic text, or the same whole-root value).
func TestScopeReferencePinned(t *testing.T) {
	for _, tc := range []struct {
		ref, diag, value string
	}{
		// A name the type does not declare.
		{ref: `aws_vpc.nope.id`,
			diag: `main.ccl:13:16: error: invalid reference aws_vpc.nope.id: object has no attribute "nope"`},
		// A schema type with no resource in the module.
		{ref: `aws_security_group.sg.id`,
			diag: `main.ccl:13:16: error: reference to undeclared name "aws_security_group"`},
		// A bare type root, in a template and as a value.
		{ref: `"${aws_vpc}"`,
			diag: `main.ccl:13:17: error: cannot interpolate: cannot convert object to string`},
		{ref: `aws_vpc`, value: `{main = {arn = (known after apply), cidr_block = "10.0.0.0/16", enable_dns = true, ` +
			`id = (known after apply), name = "main"}, other = {arn = (known after apply), cidr_block = "10.1.0.0/16", ` +
			`enable_dns = true, id = (known after apply), name = "other"}}`},
		// Non-attribute steps and the data and module roots.
		{ref: `aws_vpc[0]`,
			diag: `main.ccl:13:16: error: invalid reference aws_vpc[0]: object key must be a string, got number`},
		{ref: `aws_vpc["other"].name`, value: `"other"`},
		{ref: `data.aws_region.nope.name`,
			diag: `main.ccl:13:16: error: invalid reference data.aws_region.nope.name: object has no attribute "aws_region"`},
		{ref: `module.x.y`,
			diag: `main.ccl:13:16: error: reference to undeclared name "module"`},
	} {
		src := `
resource "aws_vpc" "main" {
  name       = "main"
  cidr_block = "10.0.0.0/16"
}
resource "aws_vpc" "other" {
  name       = "other"
  cidr_block = "10.1.0.0/16"
}
resource "aws_subnet" "s" {
  depends_on = [aws_vpc.other]
  vpc_id     = aws_vpc.main.id
  name       = ` + tc.ref + `
  cidr_block = "10.0.1.0/24"
}
`
		p, diags := Compute(context.Background(), expandSrc(t, src), state.New(), Options{})
		if tc.diag != "" {
			if got := diags.Error(); got != tc.diag {
				t.Errorf("%s: diagnostic\n got %s\nwant %s", tc.ref, got, tc.diag)
			}
			continue
		}
		if diags.HasErrors() {
			t.Fatalf("%s: %s", tc.ref, diags.Error())
		}
		if got := p.Changes["aws_subnet.s"].After["name"].String(); got != tc.value {
			t.Errorf("%s: value\n got %s\nwant %s", tc.ref, got, tc.value)
		}
	}
}
