package server

import (
	"sync"
	"testing"
)

// get returns the session registered under id, or nil: the tests' way to
// reach a session's state.
func (r *registry) get(id int) *session {
	sh := r.shard(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.sessions[id]
}

// TestRegistryBasics covers the single-shard contract: insert, duplicate
// rejection, conditional removal, lookup and counting.
func TestRegistryBasics(t *testing.T) {
	var r registry
	r.init()

	a, b := &session{}, &session{}
	if !r.insert(7, a) {
		t.Fatal("fresh insert rejected")
	}
	if r.insert(7, b) {
		t.Fatal("duplicate id accepted")
	}
	if got := r.get(7); got != a {
		t.Fatalf("get(7) = %p, want %p", got, a)
	}
	if r.get(8) != nil {
		t.Fatal("get of unregistered id returned a session")
	}
	if r.count() != 1 {
		t.Fatalf("count = %d, want 1", r.count())
	}

	// removeIf only evicts the session it was asked about: a session
	// that lost its id cannot evict its successor.
	if r.removeIf(7, b) {
		t.Fatal("removeIf evicted a different session")
	}
	if r.get(7) != a {
		t.Fatal("failed removeIf changed the registration")
	}
	if !r.removeIf(7, a) {
		t.Fatal("removeIf refused the registered session")
	}
	if r.get(7) != nil || r.count() != 0 {
		t.Fatal("registry not empty after removal")
	}
	if r.removeIf(7, a) {
		t.Fatal("removeIf succeeded twice")
	}
}

// TestRegistryShardDistribution checks the Fibonacci-hash shard map: the
// ID spaces real deployments use — sequential ranks and MPI-style
// strides — must spread across all 16 shards without pathological
// clustering, which is the property that makes shard locking cheaper
// than one registry lock.
func TestRegistryShardDistribution(t *testing.T) {
	var r registry
	r.init()
	for _, tc := range []struct {
		name   string
		ids    func(i int) int
		n      int
		maxTop int // largest tolerated shard population
	}{
		{"sequential", func(i int) int { return i + 1 }, 1024, 2 * 1024 / regShards},
		{"strided-64", func(i int) int { return 64 * (i + 1) }, 1024, 2 * 1024 / regShards},
		{"strided-4096", func(i int) int { return 4096 * (i + 1) }, 1024, 2 * 1024 / regShards},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var counts [regShards]int
			used := 0
			for i := 0; i < tc.n; i++ {
				sh := r.shard(tc.ids(i))
				idx := -1
				for j := range r.shards {
					if sh == &r.shards[j] {
						idx = j
						break
					}
				}
				if idx < 0 {
					t.Fatal("shard() returned a pointer outside the shard array")
				}
				if counts[idx] == 0 {
					used++
				}
				counts[idx]++
			}
			if used != regShards {
				t.Errorf("%d ids landed in only %d of %d shards: %v", tc.n, used, regShards, counts)
			}
			for idx, c := range counts {
				if c > tc.maxTop {
					t.Errorf("shard %d holds %d of %d ids (max tolerated %d): %v",
						idx, c, tc.n, tc.maxTop, counts)
				}
			}
		})
	}
}

// TestRegistryConcurrent hammers one registry with concurrent
// register/lookup/remove cycles across overlapping ID ranges; run under
// -race it proves the shard locking sound, and the final count proves no
// session was lost or double-freed.
func TestRegistryConcurrent(t *testing.T) {
	var r registry
	r.init()

	const (
		workers = 8
		ids     = 128
		rounds  = 200
	)
	var wg sync.WaitGroup
	keep := make([]*session, ids) // winners of the final round, by id
	var keepMu sync.Mutex
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				for id := 1; id <= ids; id++ {
					sess := &session{}
					if r.insert(id, sess) {
						if r.get(id) == nil {
							t.Error("registered id not visible")
							return
						}
						if round == rounds-1 {
							// Leave the last round's winners registered.
							keepMu.Lock()
							keep[id-1] = sess
							keepMu.Unlock()
							continue
						}
						if !r.removeIf(id, sess) {
							t.Error("owner could not deregister its id")
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()

	got := 0
	r.forEach(func(*session) { got++ })
	if got != r.count() {
		t.Errorf("forEach saw %d sessions, count reports %d", got, r.count())
	}
	for id := 1; id <= ids; id++ {
		if keep[id-1] == nil {
			continue
		}
		if r.get(id) != keep[id-1] {
			t.Errorf("id %d: registered session is not the last-round winner", id)
		}
	}
}
