// Package a exercises the hotalloc analyzer: //dfpr:hotpath functions must
// not allocate, box, write maps, take locks or spawn goroutines.
package a

import (
	"fmt"
	"sync"
)

type view struct {
	ranks []float64
	dense map[string]int
	mu    sync.RWMutex
}

// ScoreOf is the shape the analyzer protects: bounds check + load, no traps.
//
//dfpr:hotpath
func (v *view) ScoreOf(u int) (float64, bool) {
	if u < 0 || u >= len(v.ranks) {
		return 0, false
	}
	return v.ranks[u], true
}

// AppendTopK may append into the caller's recycled buffer — append is
// exempt by contract.
//
//dfpr:hotpath
func (v *view) AppendTopK(dst []int, k int) []int {
	for i := 0; i < k && i < len(v.ranks); i++ {
		dst = append(dst, i)
	}
	return dst
}

//dfpr:hotpath
func (v *view) makesSlice(n int) []float64 {
	return make([]float64, n) // want `allocates \(make\)`
}

//dfpr:hotpath
func (v *view) newsValue() *view {
	return new(view) // want `allocates \(new\)`
}

//dfpr:hotpath
func (v *view) takesAddr() *view {
	return &view{} // want `allocates \(&composite literal\)`
}

//dfpr:hotpath
func (v *view) sliceLit() []int {
	return []int{1, 2} // want `allocates \(slice literal\)`
}

//dfpr:hotpath
func (v *view) mapLit() map[string]int {
	return map[string]int{} // want `allocates \(map literal\)`
}

//dfpr:hotpath
func (v *view) mapWrite(k string) {
	v.dense[k] = 1 // want `writes to a map`
}

//dfpr:hotpath
func (v *view) mapDelete(k string) {
	delete(v.dense, k) // want `writes to a map \(delete\)`
}

//dfpr:hotpath
func (v *view) mapBump(k string) {
	v.dense[k]++ // want `writes to a map`
}

// Map READS are fine: lock-free lookup is the whole point of the keymap.
//
//dfpr:hotpath
func (v *view) mapRead(k string) int {
	return v.dense[k]
}

//dfpr:hotpath
func (v *view) locks() float64 {
	v.mu.RLock() // want `acquires a mutex \(RWMutex\.RLock\)`
	r := v.ranks[0]
	v.mu.RUnlock()
	return r
}

//dfpr:hotpath
func (v *view) spawns() {
	go v.locks() // want `spawns a goroutine`
}

//dfpr:hotpath
func (v *view) closes() func() {
	return func() {} // want `declares a closure`
}

//dfpr:hotpath
func (v *view) defers() {
	defer v.mu.RUnlock() // want `defers a call`
}

//dfpr:hotpath
func (v *view) boxesArg(u int) {
	fmt.Println(u) // want `boxes a concrete int into any`
}

//dfpr:hotpath
func (v *view) boxesAssign(u int) interface{} {
	var x interface{} = u // want `boxes a concrete int into interface\{\}`
	return x
}

//dfpr:hotpath
func (v *view) boxesReturn(u int) interface{} {
	return u // want `boxes a concrete int into interface\{\}`
}

//dfpr:hotpath
func (v *view) boxesExplicit(u int) interface{} {
	return interface{}(u) // want `boxes a concrete value into interface\{\}`
}

//dfpr:hotpath
func (v *view) stringifies(b []byte) string {
	return string(b) // want `allocates \(slice→string conversion\)`
}

//dfpr:hotpath
func (v *view) byteifies(s string) []byte {
	return []byte(s) // want `allocates \(string→slice conversion\)`
}

// Interface-to-interface and nil are not boxing.
//
//dfpr:hotpath
func (v *view) passthrough(x interface{}) interface{} {
	if x == nil {
		return nil
	}
	return x
}

// The cold fallback pattern: a documented suppression keeps the hot
// annotation while admitting the slow branch.
//
//dfpr:hotpath
func (v *view) coldFallback(k string) int {
	if n, ok := v.dense[k]; ok {
		return n
	}
	v.mu.RLock()         //lint:allow hotalloc cold dirty-tail fallback, measured rare
	defer v.mu.RUnlock() //lint:allow hotalloc cold path only
	return v.dense[k]
}

// Unannotated functions may do anything.
func (v *view) coldPath() map[string]int {
	v.mu.Lock()
	defer v.mu.Unlock()
	m := make(map[string]int)
	for k, n := range v.dense {
		m[k] = n
	}
	return m
}
