package plan

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"cloudless/internal/config"
	"cloudless/internal/state"
	"cloudless/internal/workload"
)

// moduleFleet builds a configuration in which one module holds n subnets
// and n/4 outputs, each read by one root-module security group.
func moduleFleet(n int) (map[string]string, config.ModuleResolver) {
	var mod strings.Builder
	mod.WriteString(`
variable "n" {}

resource "aws_vpc" "v" {
  name       = "fleet"
  cidr_block = "10.0.0.0/8"
}

resource "aws_subnet" "s" {
  count      = var.n
  name       = "s-${count.index}"
  vpc_id     = aws_vpc.v.id
  cidr_block = cidrsubnet(aws_vpc.v.cidr_block, 16, count.index)
}
`)
	var root strings.Builder
	fmt.Fprintf(&root, `
module "fleet" {
  source = "./fleet"
  n      = %d
}
`, n)
	for i := 0; i < n/4; i++ {
		fmt.Fprintf(&mod, "output \"s%[1]d\" { value = aws_subnet.s[%[2]d].id }\n", i, i*4)
		fmt.Fprintf(&root, `
resource "aws_security_group" "g%[1]d" {
  name   = "g%[1]d"
  vpc_id = module.fleet.s%[1]d
}
`, i)
	}
	return map[string]string{"main.ccl": root.String()},
		config.MapResolver{"./fleet": {"fleet.ccl": mod.String()}}
}

func expandScale(tb testing.TB, files map[string]string, resolver config.ModuleResolver) *config.Expansion {
	tb.Helper()
	m, diags := config.Load(files)
	if diags.HasErrors() {
		tb.Fatal(diags.Error())
	}
	ex, diags := config.Expand(m, nil, resolver)
	if diags.HasErrors() {
		tb.Fatal(diags.Error())
	}
	return ex
}

// coldMallocsPerInstance counts heap allocations per instance over one cold
// Compute. A first Compute warms one-time initialization out of the count.
func coldMallocsPerInstance(t *testing.T, ex *config.Expansion) float64 {
	t.Helper()
	opts := Options{Concurrency: 1}
	if _, diags := Compute(context.Background(), ex, state.New(), opts); diags.HasErrors() {
		t.Fatal(diags.Error())
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, diags := Compute(context.Background(), ex, state.New(), opts); diags.HasErrors() {
		t.Fatal(diags.Error())
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(len(ex.Instances))
}

// TestColdPlanMallocsLinear guards the cold plan's linearity without timing:
// the allocations a cold Compute makes per instance at ~2k instances stay
// within 1.5x of the ~500-instance figure. A cost that grows with the
// graph per instance (rebuilding module-wide roots after every write,
// scanning every instance per module output) fails it by a wide margin.
func TestColdPlanMallocsLinear(t *testing.T) {
	if testing.Short() {
		t.Skip("plans ~5k instances")
	}
	randomDAG := func(n int) (map[string]string, config.ModuleResolver) {
		return workload.RandomDAG(n, 3), nil
	}
	for _, tc := range []struct {
		name         string
		gen          func(int) (map[string]string, config.ModuleResolver)
		small, large int
	}{
		{"random-dag", randomDAG, 333, 1333}, // 1.5n+1 instances
		{"module-outputs", moduleFleet, 400, 1600},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var per [2]float64
			var size [2]int
			for i, n := range []int{tc.small, tc.large} {
				files, resolver := tc.gen(n)
				ex := expandScale(t, files, resolver)
				per[i], size[i] = coldMallocsPerInstance(t, ex), len(ex.Instances)
				t.Logf("%d instances: %.1f mallocs/instance", size[i], per[i])
			}
			if per[1] > 1.5*per[0] {
				t.Errorf("cold plan allocations grow with the graph: %.1f/instance at %d instances, %.1f at %d (limit 1.5x)",
					per[0], size[0], per[1], size[1])
			}
		})
	}
}

// BenchmarkColdCompute plans a random DAG from empty state, the first-deploy
// path: every instance is evaluated against a fresh value store.
func BenchmarkColdCompute(b *testing.B) {
	for _, n := range []int{333, 1333} {
		ex := expandScale(b, workload.RandomDAG(n, 3), nil)
		b.Run(fmt.Sprintf("instances=%d", len(ex.Instances)), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, diags := Compute(context.Background(), ex, state.New(), Options{Concurrency: 1}); diags.HasErrors() {
					b.Fatal(diags.Error())
				}
			}
		})
	}
}

// BenchmarkScopeFor builds instance scopes over a planned ~2k-instance
// random DAG, cycling through every instance. "after-set" first rewrites
// the previous instance's value, as the plan walk and the applier do
// between scopes.
func BenchmarkScopeFor(b *testing.B) {
	ex := expandScale(b, workload.RandomDAG(1333, 3), nil)
	p, diags := Compute(context.Background(), ex, state.New(), Options{Concurrency: 1})
	if diags.HasErrors() {
		b.Fatal(diags.Error())
	}
	vs, insts := p.Values, ex.Instances
	b.Run("steady", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = vs.ScopeFor(insts[i%len(insts)])
		}
	})
	b.Run("after-set", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			prev := insts[(i+len(insts)-1)%len(insts)].Addr
			v, _ := vs.Get(prev)
			vs.Set(prev, v)
			_ = vs.ScopeFor(insts[i%len(insts)])
		}
	})
}
