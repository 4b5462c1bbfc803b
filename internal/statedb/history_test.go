package statedb

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"cloudless/internal/eval"
	"cloudless/internal/state"
)

// TestHistoryMatchesCommittedStates drives a seeded random mix of commits,
// aborts and stale-base rejections through every backend, recording the
// committed state after each successful commit. Every recorded serial must
// then materialize from the time machine with the same fingerprint and
// outputs, and only successful commits may add versions.
func TestHistoryMatchesCommittedStates(t *testing.T) {
	for _, backend := range backendsUnderTest() {
		backend := backend
		t.Run(backend, func(t *testing.T) {
			seed := state.New()
			seed.Set(rs("aws_vpc.seeded", -1))
			db := OpenEngine(newTestEngine(t, backend, seed), ResourceLock)
			ctx := context.Background()
			rng := rand.New(rand.NewSource(42))

			type recorded struct {
				fingerprint string
				outputs     map[string]eval.Value
			}
			want := map[int]recorded{}
			snapshotNow := func() {
				s := db.Snapshot()
				want[s.Serial] = recorded{s.Fingerprint(), s.Outputs}
			}
			snapshotNow()
			addr := func() string { return fmt.Sprintf("aws_vpc.a%d", rng.Intn(16)) }
			commit := func(txn *Txn) {
				t.Helper()
				if _, err := txn.Commit(); err != nil {
					t.Fatal(err)
				}
				snapshotNow()
			}

			commits, rejected, aborted := 0, 0, 0
			for i := 0; i < 200; i++ {
				switch r := rng.Intn(10); {
				case r == 0: // abort after staging writes
					txn := db.Begin("doomed")
					a := addr()
					if err := txn.Lock(ctx, a); err != nil {
						t.Fatal(err)
					}
					_ = txn.Put(rs(a, 1000+i))
					txn.SetOutputs(map[string]eval.Value{"doomed": eval.Int(i)})
					txn.Abort()
					aborted++
				case r == 1: // a rival commit makes a pinned txn stale
					a := addr()
					pinned := db.BeginAt("pinned", db.Serial())
					rival := db.Begin("rival")
					if err := rival.Lock(ctx, a); err != nil {
						t.Fatal(err)
					}
					_ = rival.Put(rs(a, i))
					commit(rival)
					commits++
					if err := pinned.Lock(ctx, a); err != nil {
						t.Fatal(err)
					}
					_ = pinned.Delete(a)
					var stale *StaleBaseError
					if _, err := pinned.Commit(); !errors.As(err, &stale) {
						t.Fatalf("pinned commit error = %v, want *StaleBaseError", err)
					}
					pinned.Abort()
					rejected++
				default: // puts, deletes and sometimes new outputs
					txn := db.Begin(fmt.Sprintf("txn %d", i))
					for k := 1 + rng.Intn(3); k > 0; k-- {
						a := addr()
						if err := txn.Lock(ctx, a); err != nil {
							t.Fatal(err)
						}
						if rng.Intn(4) == 0 {
							_ = txn.Delete(a)
						} else {
							_ = txn.Put(rs(a, i))
						}
					}
					if rng.Intn(3) == 0 {
						txn.SetOutputs(map[string]eval.Value{"i": eval.Int(i)})
					}
					commit(txn)
					commits++
				}
			}
			if rejected == 0 || aborted == 0 {
				t.Fatalf("sequence exercised %d rejections and %d aborts, want some of each", rejected, aborted)
			}

			h := db.History()
			if h.Len() != 1+commits || len(want) != 1+commits {
				t.Fatalf("history len = %d, recorded %d, want 1 + %d commits", h.Len(), len(want), commits)
			}
			for serial, w := range want {
				snap, err := h.At(serial)
				if err != nil {
					t.Fatalf("At(%d): %v", serial, err)
				}
				if snap.Serial != serial || snap.State.Serial != serial {
					t.Errorf("At(%d) serial = %d / %d", serial, snap.Serial, snap.State.Serial)
				}
				if got := snap.State.Fingerprint(); got != w.fingerprint {
					t.Errorf("At(%d) fingerprint = %s, want %s", serial, got, w.fingerprint)
				}
				if !eval.Object(snap.State.Outputs).Equal(eval.Object(w.outputs)) {
					t.Errorf("At(%d) outputs = %v, want %v", serial, snap.State.Outputs, w.outputs)
				}
			}
			if _, err := h.At(db.Serial() + 1); err == nil {
				t.Error("At past the head returned a version")
			}

			// What At returns is the caller's: mutating it changes no
			// version, neither the one it came from nor a later one.
			first := db.Serial() - commits
			snap, _ := h.At(first)
			for _, rs := range snap.State.Resources {
				rs.Attrs["n"] = eval.Int(-999)
			}
			snap.State.Remove("aws_vpc.seeded")
			snap.State.Outputs["leak"] = eval.True
			for _, serial := range []int{first, db.Serial()} {
				again, _ := h.At(serial)
				if got := again.State.Fingerprint(); got != want[serial].fingerprint {
					t.Errorf("At(%d) changed after mutating a returned state", serial)
				}
				if _, ok := again.State.Outputs["leak"]; ok {
					t.Errorf("At(%d) outputs changed after mutating a returned state", serial)
				}
			}
		})
	}
}

// failAfterApply applies every batch and then reports an error, as a
// durable engine does when compaction fails after the commit landed.
type failAfterApply struct{ Engine }

func (e failAfterApply) Commit(b *Batch) (int, error) {
	if _, err := e.Engine.Commit(b); err != nil {
		return 0, err
	}
	return 0, errors.New("compaction failed")
}

// TestHistoryFollowsEngineOnFailedCommit: when the engine applied a batch
// but failed the commit, the time machine still records the serial the
// engine reached, and the still-open transaction cannot change it.
func TestHistoryFollowsEngineOnFailedCommit(t *testing.T) {
	db := OpenEngine(failAfterApply{newTestEngine(t, BackendMemory, nil)}, ResourceLock)
	txn := db.Begin("half")
	if err := txn.Lock(context.Background(), "aws_vpc.a"); err != nil {
		t.Fatal(err)
	}
	_ = txn.Put(rs("aws_vpc.a", 1))
	if _, err := txn.Commit(); err == nil {
		t.Fatal("commit succeeded through a failing engine")
	}
	_ = txn.Put(rs("aws_vpc.a", 2))
	txn.Abort()
	snap, err := db.History().At(db.Serial())
	if err != nil {
		t.Fatal(err)
	}
	if got := snap.State.Get("aws_vpc.a"); got == nil || got.Attr("n").AsInt() != 1 {
		t.Errorf("history at the engine's serial = %+v, want aws_vpc.a with n=1", got)
	}
}

// TestHistoryReadsDuringCommits races time-machine reads against commits
// (run under -race): a reader replays while versions are appended.
func TestHistoryReadsDuringCommits(t *testing.T) {
	db := Open(nil, ResourceLock)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			txn := db.Begin("edit")
			if err := txn.Lock(context.Background(), "aws_vpc.a"); err != nil {
				t.Error(err)
				return
			}
			_ = txn.Put(rs("aws_vpc.a", i))
			if _, err := txn.Commit(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for {
		select {
		case <-done:
			if n := db.History().Len(); n != 101 {
				t.Errorf("history len = %d, want 101", n)
			}
			return
		default:
		}
		serial := db.Serial()
		snap, err := db.History().At(serial)
		if err != nil {
			t.Fatalf("At(%d): %v", serial, err)
		}
		if snap.Serial != serial {
			t.Fatalf("At(%d) serial = %d", serial, snap.Serial)
		}
	}
}

// seededDB opens a DB on backend over n resources. The wal engine's periodic
// full-state compaction is pushed past any run, so what is measured is the
// commit itself.
func seededDB(tb testing.TB, backend string, n int) *DB {
	tb.Helper()
	seed := state.New()
	for i := 0; i < n; i++ {
		seed.Set(rs(fmt.Sprintf("aws_vpc.r%d", i), i))
	}
	opts := EngineOptions{CompactEvery: 1 << 30}
	if backend == BackendWAL {
		opts.Dir = tb.TempDir()
	}
	eng, err := NewEngine(backend, seed, opts)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { eng.Close() })
	return OpenEngine(eng, ResourceLock)
}

// commitOne writes one resource in its own transaction.
func commitOne(tb testing.TB, db *DB, i int) {
	txn := db.Begin("edit")
	const addr = "aws_vpc.r0"
	if err := txn.Lock(context.Background(), addr); err != nil {
		tb.Fatal(err)
	}
	if err := txn.Put(rs(addr, i)); err != nil {
		tb.Fatal(err)
	}
	if _, err := txn.Commit(); err != nil {
		tb.Fatal(err)
	}
}

// TestCommitAllocsFlatInStateSize guards that a one-resource commit costs
// O(what it changed): its allocations on a 4,000-resource database stay
// within 1.5x of those on a 500-resource one. A commit that copies the
// whole state allocates about 8x more at 4,000.
func TestCommitAllocsFlatInStateSize(t *testing.T) {
	for _, backend := range backendsUnderTest() {
		backend := backend
		t.Run(backend, func(t *testing.T) {
			// The minimum of three runs: allocation counts are process-wide,
			// and a goroutine another test left behind can only add to them.
			allocs := func(n int) float64 {
				db := seededDB(t, backend, n)
				i := 0
				least := math.Inf(1)
				for r := 0; r < 3; r++ {
					least = math.Min(least, testing.AllocsPerRun(50, func() {
						i++
						commitOne(t, db, i)
					}))
				}
				return least
			}
			small, large := allocs(500), allocs(4000)
			t.Logf("allocs per one-resource commit: %.0f at 500, %.0f at 4000", small, large)
			if large > 1.5*small {
				t.Errorf("one-resource commit allocates %.0f at 4,000 resources vs %.0f at 500 (> 1.5x)", large, small)
			}
		})
	}
}

// BenchmarkCommitOneResource times a one-resource commit per backend as the
// state grows; ns/op and B/op should stay flat across sizes.
func BenchmarkCommitOneResource(b *testing.B) {
	for _, backend := range backendsUnderTest() {
		for _, n := range []int{500, 2000, 10000} {
			b.Run(fmt.Sprintf("%s/%d", backend, n), func(b *testing.B) {
				db := seededDB(b, backend, n)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					commitOne(b, db, i)
				}
			})
		}
	}
}
