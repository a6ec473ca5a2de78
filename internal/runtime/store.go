package runtime

import (
	"fmt"
	"sync"
)

// Store is a node-private key/value space holding dataflow values (tile
// states, packed halo buffers). Values are write-once: producing the same
// key twice is a dataflow bug and panics. Take removes a value, enforcing
// the single-consumer discipline of halo buffers.
//
// In addition to the keyed map, a store can carry preallocated slots —
// fixed arrays of general values and message-payload buffers reserved at
// graph-build time (see ptg.Env). Slot accesses are plain array indexing
// with no lock or hash: the runtime's scheduling edges already order every
// slot producer before its consumer, which is exactly the property that
// makes the keyed map's mutex redundant on the hot path.
type Store struct {
	mu sync.Mutex
	m  map[any]any

	slots    []any
	bufSlots [][]byte
}

// NewStore returns an empty store with no slots.
func NewStore() *Store { return &Store{m: make(map[any]any)} }

// NewStoreWithSlots returns an empty store carrying the given numbers of
// general and buffer slots.
func NewStoreWithSlots(general, buf int) *Store {
	s := NewStore()
	if general > 0 {
		s.slots = make([]any, general)
	}
	if buf > 0 {
		s.bufSlots = make([][]byte, buf)
	}
	return s
}

// PutSlot stores a write-once value in a general slot.
func (s *Store) PutSlot(slot int32, v any) {
	if v == nil {
		panic("runtime: PutSlot of nil value")
	}
	if s.slots[slot] != nil {
		panic(fmt.Sprintf("runtime: slot %d produced twice", slot))
	}
	s.slots[slot] = v
}

// GetSlot returns a general slot's value without removing it (nil when
// empty).
func (s *Store) GetSlot(slot int32) any { return s.slots[slot] }

// PutBufSlot deposits a payload in a buffer slot, panicking when the slot
// is occupied (duplicated delivery or slot-lifetime bug).
func (s *Store) PutBufSlot(slot int32, b []byte) {
	if b == nil {
		panic("runtime: PutBufSlot of nil payload")
	}
	if s.bufSlots[slot] != nil {
		panic(fmt.Sprintf("runtime: buffer slot %d produced twice", slot))
	}
	s.bufSlots[slot] = b
}

// TakeBufSlot removes and returns a buffer slot's payload, panicking when
// the slot is empty.
func (s *Store) TakeBufSlot(slot int32) []byte {
	b := s.bufSlots[slot]
	if b == nil {
		panic(fmt.Sprintf("runtime: buffer slot %d consumed before production", slot))
	}
	s.bufSlots[slot] = nil
	return b
}

// LiveBufSlots counts occupied buffer slots — zero after a hygienic run, in
// which every halo payload was consumed exactly once.
func (s *Store) LiveBufSlots() int {
	n := 0
	for _, b := range s.bufSlots {
		if b != nil {
			n++
		}
	}
	return n
}

// Put stores a value under key; the key must not already exist.
func (s *Store) Put(key, val any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.m[key]; dup {
		panic(fmt.Sprintf("runtime: value %v produced twice", key))
	}
	s.m[key] = val
}

// Take removes and returns the value under key, panicking if absent.
func (s *Store) Take(key any) any {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.m[key]
	if !ok {
		panic(fmt.Sprintf("runtime: value %v consumed before production", key))
	}
	delete(s.m, key)
	return v
}

// Get returns the value under key without removing it, or nil.
func (s *Store) Get(key any) any {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m[key]
}

// Len returns the number of live values (useful to assert buffer hygiene:
// after a run only persistent tile states should remain).
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}

// Keys returns a snapshot of the stored keys.
func (s *Store) Keys() []any {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]any, 0, len(s.m))
	for k := range s.m {
		out = append(out, k)
	}
	return out
}
