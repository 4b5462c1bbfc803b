package statedb

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"cloudless/internal/eval"
	"cloudless/internal/state"
)

// History is the database's time machine (§3.4): the state the database
// opened with plus every committed batch, in serial order. A past version
// is materialized on demand by replaying the batches up to its serial onto
// the base, so a commit records O(what it changed) instead of a full-state
// copy, and memory grows with the sum of the batches rather than with
// commits × state size. Retention is unlimited. It is safe for concurrent
// use.
type History struct {
	base     *state.State
	baseTime time.Time

	mu       sync.RWMutex
	versions []version // ascending by serial; entries are never modified
}

// version is one committed batch, owned by the history once recorded.
type version struct {
	serial int
	time   time.Time
	batch  *Batch
}

// newHistory starts a time machine at base, which the history takes
// ownership of.
func newHistory(base *state.State) *History {
	return &History{base: base, baseTime: time.Now()}
}

// record appends a committed batch at serial. The history takes ownership
// of the batch: the caller must not modify it afterwards. Callers record
// serials in ascending order (DB does so under its commit mutex).
func (h *History) record(serial int, b *Batch) {
	h.mu.Lock()
	h.versions = append(h.versions, version{serial: serial, time: time.Now(), batch: b})
	h.mu.Unlock()
}

// head returns the newest recorded serial.
func (h *History) head() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	if n := len(h.versions); n > 0 {
		return h.versions[n-1].serial
	}
	return h.base.Serial
}

// Len returns the number of retained versions, the initial state included.
func (h *History) Len() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return 1 + len(h.versions)
}

// At materializes the version with the given serial. The returned state is
// a fresh deep copy that the caller may mutate.
func (h *History) At(serial int) (*state.Snapshot, error) {
	if serial == h.base.Serial {
		return &state.Snapshot{Serial: serial, Time: h.baseTime, Description: "initial", State: h.base.Clone()}, nil
	}
	// Recorded versions are immutable and the slice is append-only, so the
	// replay runs on the header read under the lock without holding it.
	h.mu.RLock()
	versions := h.versions
	h.mu.RUnlock()
	i := sort.Search(len(versions), func(i int) bool { return versions[i].serial >= serial })
	if i >= len(versions) || versions[i].serial != serial {
		return nil, fmt.Errorf("statedb history: no version with serial %d", serial)
	}
	s := h.base.Fork()
	for _, v := range versions[:i+1] {
		for addr, rs := range v.batch.Writes {
			s.Resources[addr] = rs
		}
		for addr := range v.batch.Deletes {
			delete(s.Resources, addr)
		}
		if v.batch.SetOutputs {
			s.Outputs = v.batch.Outputs
		}
	}
	s.Serial = serial
	v := versions[i]
	return &state.Snapshot{Serial: serial, Time: v.time, Description: v.batch.Desc, State: s.Clone()}, nil
}

// clone deep-copies a batch, for recording one whose maps the caller keeps.
func (b *Batch) clone() *Batch {
	cp := *b
	cp.Writes = make(map[string]*state.ResourceState, len(b.Writes))
	for addr, rs := range b.Writes {
		cp.Writes[addr] = rs.Clone()
	}
	cp.Deletes = make(map[string]bool, len(b.Deletes))
	for addr := range b.Deletes {
		cp.Deletes[addr] = true
	}
	if b.Outputs != nil {
		cp.Outputs = make(map[string]eval.Value, len(b.Outputs))
		for k, v := range b.Outputs {
			cp.Outputs[k] = v
		}
	}
	return &cp
}
