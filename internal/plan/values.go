// Package plan computes execution plans: it diffs the desired configuration
// against recorded state, decides create/update/replace/delete actions,
// builds the dependency graph over pending changes, and — the §3.3
// optimization — supports incremental planning that confines evaluation and
// state refresh to the impact scope of a change.
package plan

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"cloudless/internal/config"
	"cloudless/internal/eval"
	"cloudless/internal/hcl"
)

// Addr decomposes an instance address.
type Addr struct {
	ModulePath string // "" for root
	Data       bool
	Type       string
	Name       string
	// Key is the instance key: nil, int, or string.
	Key any
}

// ParseAddr parses addresses like `module.net.aws_subnet.s[2]` or
// `data.aws_region.current`.
func ParseAddr(addr string) (Addr, error) {
	var out Addr
	rest := addr
	if idx := strings.IndexByte(rest, '['); idx >= 0 {
		if !strings.HasSuffix(rest, "]") || len(rest)-1 <= idx+1 {
			return out, fmt.Errorf("malformed address %q", addr)
		}
		keyRaw := rest[idx+1 : len(rest)-1]
		rest = rest[:idx]
		if strings.HasPrefix(keyRaw, `"`) {
			s, err := strconv.Unquote(keyRaw)
			if err != nil {
				return out, fmt.Errorf("malformed key in address %q", addr)
			}
			out.Key = s
		} else {
			n, err := strconv.Atoi(keyRaw)
			if err != nil {
				return out, fmt.Errorf("malformed index in address %q", addr)
			}
			out.Key = n
		}
	}
	parts := strings.Split(rest, ".")
	if len(parts) >= 2 && parts[0] == "module" {
		out.ModulePath = parts[1]
		parts = parts[2:]
	}
	if len(parts) >= 1 && parts[0] == "data" {
		out.Data = true
		parts = parts[1:]
	}
	if len(parts) != 2 {
		return out, fmt.Errorf("malformed address %q", addr)
	}
	out.Type, out.Name = parts[0], parts[1]
	return out, nil
}

// groupKey identifies one resource-level group within a module.
type groupKey struct {
	data bool
	typ  string
	name string
}

// rootName is the scope variable a group hangs under: its type, or "data".
func (gk groupKey) rootName() string {
	if gk.data {
		return "data"
	}
	return gk.typ
}

// memberRef locates an instance within the group index.
type memberRef struct {
	mod  *moduleIndex
	gk   groupKey
	addr string
	key  any // nil, int, or string
}

// moduleIndex is the static group index of one module plus the values
// cached from it. A group's value is cached because a count group is read
// by each of its many dependents (every NIC reads aws_subnet.r); Set drops
// the written group's value and every output value of the module.
type moduleIndex struct {
	groups map[groupKey][]memberRef
	byRoot map[string][]groupKey // root name -> groups under it

	assembled map[groupKey]eval.Value // group value cache
	outputs   map[string]eval.Value   // module output value cache
}

// refSet is what a set of expressions references, resolved once against
// the groups of the module they are evaluated in. A root referenced only as
// type.name (or data.type.name, module.call.output) exposes just the named
// members. A root referenced whole, through a non-attribute step or by a
// name that is no group, exposes all of its members, so length(aws_vpc),
// aws_vpc["a"] and aws_vpc.nope evaluate exactly as against a full root.
type refSet struct {
	roots   map[string][]groupKey // root name -> groups it exposes
	modules map[string][]string   // module call -> outputs it exposes; nil: no "module" root
}

// ValueStore holds the evaluated object value of every resource instance and
// provides evaluation scopes that expose them to expressions. It is safe for
// concurrent use (the applier writes from many workers).
//
// A scope exposes only what its expressions reference. A group referenced
// by name is assembled from the instance values and cached until one of its
// members is written; a root referenced whole is assembled from the cached
// groups under it. Building a scope therefore costs in proportion to what
// the instance references, not to the size of its module, and a plan that
// interleaves N scopes with N writes stays linear in N.
type ValueStore struct {
	mu   sync.Mutex
	vals map[string]eval.Value // instance addr -> object value
	ex   *config.Expansion

	// Static index, built once from the expansion.
	memberOf map[string]memberRef
	modules  map[string]*moduleIndex // modulePath -> index

	// References, classified on first use: per resource address for
	// instances (instances of one resource share their expressions), per
	// spec for outputs.
	instRefs   map[string]*refSet
	outputRefs map[*config.OutputSpec]*refSet
}

// NewValueStore builds a store for an expansion.
func NewValueStore(ex *config.Expansion) *ValueStore {
	vs := &ValueStore{
		vals:       map[string]eval.Value{},
		ex:         ex,
		memberOf:   make(map[string]memberRef, len(ex.Instances)),
		modules:    map[string]*moduleIndex{},
		instRefs:   map[string]*refSet{},
		outputRefs: map[*config.OutputSpec]*refSet{},
	}
	for _, inst := range ex.Instances {
		pa, err := ParseAddr(inst.Addr)
		if err != nil {
			continue
		}
		mi := vs.moduleLocked(inst.ModulePath)
		ref := memberRef{
			mod:  mi,
			gk:   groupKey{data: pa.Data, typ: pa.Type, name: pa.Name},
			addr: inst.Addr,
			key:  pa.Key,
		}
		vs.memberOf[inst.Addr] = ref
		if _, seen := mi.groups[ref.gk]; !seen {
			mi.byRoot[ref.gk.rootName()] = append(mi.byRoot[ref.gk.rootName()], ref.gk)
		}
		mi.groups[ref.gk] = append(mi.groups[ref.gk], ref)
	}
	return vs
}

// moduleLocked returns the index of a module, empty if it has no instances.
func (vs *ValueStore) moduleLocked(modulePath string) *moduleIndex {
	mi := vs.modules[modulePath]
	if mi == nil {
		mi = &moduleIndex{
			groups:    map[groupKey][]memberRef{},
			byRoot:    map[string][]groupKey{},
			assembled: map[groupKey]eval.Value{},
		}
		vs.modules[modulePath] = mi
	}
	return mi
}

// assembleGroupLocked computes the value of one group: a single object,
// an index-ordered list, or a key-addressed map.
func (vs *ValueStore) assembleGroupLocked(mi *moduleIndex, gk groupKey) eval.Value {
	if v, ok := mi.assembled[gk]; ok {
		return v
	}
	members := mi.groups[gk]
	var out eval.Value
	switch members[0].key.(type) {
	case nil:
		out = vs.valueOfLocked(members[0].addr)
	case int:
		maxIdx := -1
		for _, m := range members {
			if i := m.key.(int); i > maxIdx {
				maxIdx = i
			}
		}
		list := make([]eval.Value, maxIdx+1)
		for i := range list {
			list[i] = eval.Unknown
		}
		for _, m := range members {
			list[m.key.(int)] = vs.valueOfLocked(m.addr)
		}
		out = eval.ListOf(list)
	case string:
		obj := make(map[string]eval.Value, len(members))
		for _, m := range members {
			obj[m.key.(string)] = vs.valueOfLocked(m.addr)
		}
		out = eval.Object(obj)
	}
	mi.assembled[gk] = out
	return out
}

func (vs *ValueStore) valueOfLocked(addr string) eval.Value {
	if v, ok := vs.vals[addr]; ok {
		return v
	}
	return eval.Unknown
}

// NewEmptyValueStore builds a store with no configuration behind it, used
// by destroy plans that never evaluate expressions.
func NewEmptyValueStore() *ValueStore {
	return NewValueStore(&config.Expansion{ByAddr: map[string]*config.Instance{}})
}

// RootOutputs exposes the expansion's root output specs.
func (vs *ValueStore) RootOutputs() map[string]*config.OutputSpec {
	if vs.ex == nil || vs.ex.Outputs == nil {
		return nil
	}
	return vs.ex.Outputs
}

// OutputValue evaluates an output spec against current values.
func (vs *ValueStore) OutputValue(spec *config.OutputSpec) eval.Value {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	return vs.outputLocked(spec)
}

// ResourceAddrOf strips the instance key from an address.
func ResourceAddrOf(addr string) string {
	if i := strings.IndexByte(addr, '['); i >= 0 {
		return addr[:i]
	}
	return addr
}

// Set records the current object value of an instance and invalidates the
// caches covering it.
func (vs *ValueStore) Set(addr string, v eval.Value) {
	vs.mu.Lock()
	vs.vals[addr] = v
	if ref, ok := vs.memberOf[addr]; ok {
		delete(ref.mod.assembled, ref.gk)
		ref.mod.outputs = nil
	}
	vs.mu.Unlock()
}

// Get returns the instance's object value, or false.
func (vs *ValueStore) Get(addr string) (eval.Value, bool) {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	v, ok := vs.vals[addr]
	return v, ok
}

// ScopeFor builds the evaluation context for an instance: its configuration
// scope (vars, locals, count/each) extended with the resources, data
// sources and module outputs its attributes reference. Every reference
// resolves as it would against the module's full roots; roots it does not
// reference are absent.
func (vs *ValueStore) ScopeFor(inst *config.Instance) *eval.Context {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	key := inst.ResourceAddr()
	refs := vs.instRefs[key]
	if refs == nil {
		var trs []hcl.Traversal
		for _, expr := range inst.Attrs {
			trs = append(trs, expr.Variables()...)
		}
		refs = vs.classifyLocked(inst.ModulePath, trs, false)
		vs.instRefs[key] = refs
	}
	return vs.scopeLocked(vs.moduleLocked(inst.ModulePath), inst.Scope, refs)
}

// outputLocked computes an output against current values, through the
// module's output cache. An output sees only its own module's resources.
func (vs *ValueStore) outputLocked(spec *config.OutputSpec) eval.Value {
	mi := vs.moduleLocked(spec.ModulePath)
	if v, ok := mi.outputs[spec.Name]; ok {
		return v
	}
	refs := vs.outputRefs[spec]
	if refs == nil {
		refs = vs.classifyLocked(spec.ModulePath, spec.Expr.Variables(), true)
		vs.outputRefs[spec] = refs
	}
	v, diags := eval.Evaluate(spec.Expr, vs.scopeLocked(mi, spec.Scope, refs))
	if diags.HasErrors() {
		v = eval.Unknown
	}
	if mi.outputs == nil {
		mi.outputs = map[string]eval.Value{}
	}
	mi.outputs[spec.Name] = v
	return v
}

// classifyLocked resolves traversals against the groups of one module.
// Resource-type roots are visible when the module has groups of that type;
// "data" and, in the root module of a configuration with module calls,
// "module" are visible to instances but not to outputs.
func (vs *ValueStore) classifyLocked(modulePath string, trs []hcl.Traversal, output bool) *refSet {
	mi := vs.moduleLocked(modulePath)
	whole := map[string]bool{}
	named := map[groupKey]bool{}
	outs := map[[2]string]bool{} // module call, output name
	for _, tr := range trs {
		root := tr.RootName()
		a, b, pair := attrPair(tr)
		switch {
		case root == "module":
			if output || modulePath != "" || len(vs.ex.ModuleOutputs) == 0 {
				continue
			}
			if pair && vs.ex.ModuleOutputs[a][b] != nil {
				outs[[2]string{a, b}] = true
			} else {
				whole[root] = true
			}
		case root == "data":
			if output {
				continue
			}
			if gk := (groupKey{data: true, typ: a, name: b}); pair && mi.groups[gk] != nil {
				named[gk] = true
			} else {
				whole[root] = true
			}
		case len(mi.byRoot[root]) > 0:
			gk := groupKey{typ: root}
			if len(tr) >= 2 {
				if step, ok := tr[1].(hcl.TraverseAttr); ok {
					gk.name = step.Name
				}
			}
			if mi.groups[gk] != nil {
				named[gk] = true
			} else {
				whole[root] = true
			}
		}
	}

	refs := &refSet{roots: map[string][]groupKey{}}
	for root := range whole {
		if root != "module" {
			refs.roots[root] = mi.byRoot[root]
		}
	}
	for gk := range named {
		if root := gk.rootName(); !whole[root] {
			refs.roots[root] = append(refs.roots[root], gk)
		}
	}
	switch {
	case whole["module"]:
		refs.modules = make(map[string][]string, len(vs.ex.ModuleOutputs))
		for call, specs := range vs.ex.ModuleOutputs {
			names := make([]string, 0, len(specs))
			for name := range specs {
				names = append(names, name)
			}
			refs.modules[call] = names
		}
	case len(outs) > 0:
		refs.modules = map[string][]string{}
		for o := range outs {
			refs.modules[o[0]] = append(refs.modules[o[0]], o[1])
		}
	}
	return refs
}

// attrPair reads the two attribute steps after a traversal's root, as in
// module.call.output or data.type.name.
func attrPair(tr hcl.Traversal) (string, string, bool) {
	if len(tr) < 3 {
		return "", "", false
	}
	a, ok1 := tr[1].(hcl.TraverseAttr)
	b, ok2 := tr[2].(hcl.TraverseAttr)
	return a.Name, b.Name, ok1 && ok2
}

// scopeLocked extends parent with the roots and module outputs in refs.
func (vs *ValueStore) scopeLocked(mi *moduleIndex, parent *eval.Context, refs *refSet) *eval.Context {
	scope := parent.Child()
	for root, gks := range refs.roots {
		scope.Variables[root] = vs.rootObjectLocked(mi, gks)
	}
	if refs.modules != nil {
		calls := make(map[string]eval.Value, len(refs.modules))
		for call, names := range refs.modules {
			outs := make(map[string]eval.Value, len(names))
			for _, name := range names {
				outs[name] = vs.outputLocked(vs.ex.ModuleOutputs[call][name])
			}
			calls[call] = eval.Object(outs)
		}
		scope.Variables["module"] = eval.Object(calls)
	}
	return scope
}

// rootObjectLocked assembles the object a root exposes over some of its
// groups: {name: group} under a type, {type: {name: group}} under data.
func (vs *ValueStore) rootObjectLocked(mi *moduleIndex, gks []groupKey) eval.Value {
	obj := make(map[string]eval.Value, len(gks))
	var byType map[string]map[string]eval.Value
	for _, gk := range gks {
		v := vs.assembleGroupLocked(mi, gk)
		if !gk.data {
			obj[gk.name] = v
			continue
		}
		if byType == nil {
			byType = map[string]map[string]eval.Value{}
		}
		if byType[gk.typ] == nil {
			byType[gk.typ] = map[string]eval.Value{}
		}
		byType[gk.typ][gk.name] = v
	}
	for typ, names := range byType {
		obj[typ] = eval.Object(names)
	}
	return eval.Object(obj)
}

// EvaluateAttrs computes the concrete attribute values of an instance under
// the current value store, returning per-attribute diagnostics.
func (vs *ValueStore) EvaluateAttrs(inst *config.Instance) (map[string]eval.Value, hcl.Diagnostics) {
	scope := vs.ScopeFor(inst)
	out := make(map[string]eval.Value, len(inst.Attrs))
	var diags hcl.Diagnostics
	for name, expr := range inst.Attrs {
		v, d := eval.Evaluate(expr, scope)
		diags = diags.Extend(d)
		if d.HasErrors() {
			continue
		}
		out[name] = v
	}
	return out, diags
}
