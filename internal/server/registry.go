package server

import "sync"

// The session registry is sharded by app-ID hash so handshakes and
// disconnects — registry writes — contend only within their shard, and
// the counters read shard by shard instead of under the allocation-round
// lock. regShards is a power of two; the
// Fibonacci multiplier spreads both sequential and strided ID spaces
// evenly across shards.
const (
	regShards    = 16
	regShardBits = 4
)

type registry struct {
	shards [regShards]regShard
}

type regShard struct {
	mu       sync.RWMutex
	sessions map[int]*session
}

func (r *registry) init() {
	for i := range r.shards {
		r.shards[i].sessions = make(map[int]*session)
	}
}

func (r *registry) shard(id int) *regShard {
	return &r.shards[(uint64(uint32(id))*0x9E3779B97F4A7C15)>>(64-regShardBits)]
}

// insert installs sess under id; it reports false when the id is
// already registered.
func (r *registry) insert(id int, sess *session) bool {
	sh := r.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, dup := sh.sessions[id]; dup {
		return false
	}
	sh.sessions[id] = sess
	return true
}

// removeIf deregisters id only while it still maps to sess, so a
// session that lost its id to a reconnect cannot evict its successor.
func (r *registry) removeIf(id int, sess *session) bool {
	sh := r.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if cur, ok := sh.sessions[id]; ok && cur == sess {
		delete(sh.sessions, id)
		return true
	}
	return false
}

// count returns the number of registered sessions.
func (r *registry) count() int {
	n := 0
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.RLock()
		n += len(sh.sessions)
		sh.mu.RUnlock()
	}
	return n
}

// forEach calls fn for every registered session, one shard at a time.
// Iteration order is unspecified; callers needing an order sort what
// they collect.
func (r *registry) forEach(fn func(*session)) {
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.RLock()
		for _, sess := range sh.sessions {
			fn(sess)
		}
		sh.mu.RUnlock()
	}
}
