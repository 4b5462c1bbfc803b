package main

import (
	"context"
	"testing"
	"time"

	"cloudless/internal/cloud"
	"cloudless/internal/eval"
)

// TestTimedCloudForwardsExtensions guards the traced run against measuring a
// different program: every optional extension the engine type-asserts for
// must answer the same on the decorator as on the raw simulator.
func TestTimedCloudForwardsExtensions(t *testing.T) {
	sim := cloud.NewSim(cloud.DefaultOptions())
	var raw cloud.Interface = sim
	decorated := cloudFor(sim, &tracer{})
	checks := map[string]func(cloud.Interface) bool{
		"BatchCreator":   func(c cloud.Interface) bool { _, ok := c.(cloud.BatchCreator); return ok },
		"BatchGetter":    func(c cloud.Interface) bool { _, ok := c.(cloud.BatchGetter); return ok },
		"PageLister":     func(c cloud.Interface) bool { _, ok := c.(cloud.PageLister); return ok },
		"ActivityWaiter": func(c cloud.Interface) bool { _, ok := c.(cloud.ActivityWaiter); return ok },
	}
	for name, has := range checks {
		if has(raw) != has(decorated) {
			t.Errorf("%s: raw sim answers %v, decorated sim answers %v", name, has(raw), has(decorated))
		}
	}
	if cloudFor(sim, nil) != raw {
		t.Error("untraced runs must get the raw simulator")
	}
}

func TestTimedCloudRecordsSpansAndForwards(t *testing.T) {
	ctx := context.Background()
	sim := cloud.NewSim(cloud.DefaultOptions())
	tr := &tracer{}
	c := cloudFor(sim, tr)
	res, err := c.Create(ctx, cloud.CreateRequest{
		Type: "aws_vpc", Attrs: map[string]eval.Value{
			"name": eval.String("v"), "cidr_block": eval.String("10.0.0.0/16"),
		}, Principal: "bench",
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := cloud.BatchGet(ctx, c, []cloud.ResourceKey{{Type: "aws_vpc", ID: res.ID}})
	if err != nil || len(got) != 1 || got[0].Err != nil {
		t.Fatalf("BatchGet through decorator: %v %+v", err, got)
	}
	if _, err := cloud.WaitActivity(ctx, c, sim.LastSeq(), time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if m := sim.Metrics(); m.BatchCalls != 1 {
		t.Fatalf("batched read fell back to single gets: %+v", m)
	}
	spans := tr.take()
	names := map[string]int{}
	for _, s := range spans {
		names[s.name]++
	}
	if names["cloud.create"] != 1 || names["cloud.batch_get"] != 1 || names[cloudWait] != 1 {
		t.Fatalf("spans = %v", names)
	}
	busy, ivs := cloudBusy(spans)
	if len(ivs) != 2 || busy <= 0 {
		t.Fatalf("cloudBusy = %v over %d intervals, want the two non-wait calls", busy, len(ivs))
	}
}
