// Package a exercises the lockorder analyzer: mutex rank order, the
// ingestMu leaf rule, and log-before-publish under the durability lock.
package a

import "sync"

type Update struct{}

type Version struct{}

type Store struct{}

func (s *Store) Apply(up Update) (int, *Version)               { return 0, nil }
func (s *Store) ApplyAt(up Update, seq uint64) (int, *Version) { return 0, nil }

// The store delegating to itself is below the WAL, not around it: exempt.
func (s *Store) ApplyEdges(up Update) (int, *Version) { return s.Apply(up) }

type Record struct{}

type Log struct{}

func (l *Log) Append(r *Record) error { return nil }

type durability struct {
	mu  sync.Mutex
	log *Log
}

type Engine struct {
	mu       sync.Mutex
	closeMu  sync.RWMutex
	viewMu   sync.Mutex
	subMu    sync.Mutex
	ingestMu sync.Mutex
	store    *Store
	dur      *durability
}

func (e *Engine) Rank() {}

// Nested in documented order: fine.
func (e *Engine) ordered() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.subMu.Lock()
	defer e.subMu.Unlock()
}

// Inverted: subMu is rank 3, mu is rank 0.
func (e *Engine) inverted() {
	e.subMu.Lock()
	defer e.subMu.Unlock()
	e.mu.Lock() // want `inverted acquires Engine\.mu while holding Engine\.subMu`
	defer e.mu.Unlock()
}

// A read lock participates in the order like a write lock.
func (e *Engine) invertedRead() {
	e.closeMu.RLock()
	defer e.closeMu.RUnlock()
	e.mu.Lock() // want `invertedRead acquires Engine\.mu while holding Engine\.closeMu`
	defer e.mu.Unlock()
}

// An explicit release ends the interval: re-acquiring in a new order is fine.
func (e *Engine) sequential() {
	e.subMu.Lock()
	e.subMu.Unlock()
	e.mu.Lock()
	e.mu.Unlock()
}

// The ingest loop must drop ingestMu before publishing.
func (e *Engine) drainHeld(up Update) {
	e.ingestMu.Lock()
	defer e.ingestMu.Unlock()
	e.storeApply(up) // want `drainHeld calls storeApply while holding Engine\.ingestMu`
}

// publish is an Engine publish path too (it calls storeApply).
func (e *Engine) publish(up Update) *Version { return e.storeApply(up) }

func (e *Engine) drainPublishHeld(up Update) {
	e.ingestMu.Lock()
	defer e.ingestMu.Unlock()
	e.publish(up) // want `drainPublishHeld calls publish while holding Engine\.ingestMu`
}

func (e *Engine) drainRankHeld() {
	e.ingestMu.Lock()
	defer e.ingestMu.Unlock()
	e.Rank() // want `drainRankHeld calls Rank while holding Engine\.ingestMu`
}

// Dropping ingestMu before the apply is the documented shape.
func (e *Engine) drainReleased(up Update) {
	e.ingestMu.Lock()
	e.ingestMu.Unlock()
	e.storeApply(up)
}

// storeApply is the one sanctioned publish point; append-before-apply under
// the durability mutex is log-before-publish done right.
func (e *Engine) storeApply(up Update) *Version {
	d := e.dur
	if d == nil {
		_, next := e.store.Apply(up)
		return next
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	_ = d.log.Append(&Record{})
	_, next := e.store.Apply(up)
	return next
}

// Publishing under the durability lock without an append loses the record
// ordering; publishing outside storeApply bypasses the WAL entirely.
func (e *Engine) skipsLog(up Update) {
	d := e.dur
	d.mu.Lock()
	defer d.mu.Unlock()
	e.store.Apply(up) // want `skipsLog publishes through Store\.Apply under the durability lock without a WAL append` `skipsLog publishes through Store\.Apply directly`
}

func (e *Engine) bypasses(up Update) {
	e.store.ApplyAt(up, 1) // want `bypasses publishes through Store\.ApplyAt directly`
}

// A suppression carries the justification for the one legitimate bypass:
// applyLogged applies records that are already in a log.
func (e *Engine) applyLogged(up Update) {
	e.store.ApplyAt(up, 1) //lint:allow lockorder records in a log are already durable
}

func (e *Engine) replayHeld(up Update) {
	e.ingestMu.Lock()
	defer e.ingestMu.Unlock()
	e.applyLogged(up) // want `replayHeld calls applyLogged while holding Engine\.ingestMu`
}

// A closure is its own scope: the goroutine holds nothing from the
// spawner's stack.
func (e *Engine) spawns() {
	e.subMu.Lock()
	defer e.subMu.Unlock()
	go func() {
		e.mu.Lock()
		defer e.mu.Unlock()
	}()
}
