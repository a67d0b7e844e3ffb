package bist

import (
	"sync"

	"bistpath/internal/area"
	"bistpath/internal/interconnect"
)

// embRef is an embedding with its registers interned to small ids:
// l/r are the head registers (-1 for pad heads and for the missing right
// head of a unary module), t is the tail register. The branch-and-bound
// workers search over embRefs so that applying and undoing an embedding
// touches three int32 counters instead of three map entries.
type embRef struct{ l, r, t int32 }

// searchArena is one worker's search state: per-register duty counters
// indexed by interned register id, the current partial assignment
// (embedding index per module position) and the worker's incumbent
// assignment, plus the session scheduler's reused member lists. Arenas
// live on a Scratch freelist and are recycled across searches; size
// re-dimensions one for the current problem.
type searchArena struct {
	tpg, sa, cb []int32   // duty counters per interned register
	cur         []int32   // embedding index per module position
	bestCur     []int32   // incumbent assignment
	sess        [][]int32 // session member lists (see schedule)
}

func (a *searchArena) size(nregs, nmods int) {
	a.tpg = growInt32(a.tpg, nregs)
	a.sa = growInt32(a.sa, nregs)
	a.cb = growInt32(a.cb, nregs)
	a.cur = growInt32(a.cur, nmods)
	a.bestCur = growInt32(a.bestCur, nmods)
}

// Scratch owns the optimizer's reusable memory: a freelist of worker
// search arenas plus the enumeration state (embedding slices, interning
// tables, compact refs) one OptimizeCtx call builds before its workers
// start. Passing one Scratch (Options.Scratch) to successive Optimize
// calls makes the whole search essentially allocation-free after the
// first call.
//
// A Scratch serves one Optimize call at a time; within that call the
// freelist hands arenas to the search's worker goroutines (that part is
// mutex-protected). Use one Scratch per synthesis worker.
type Scratch struct {
	mu   sync.Mutex
	free []*searchArena

	// Single-goroutine enumeration state (used before workers spawn).
	regID    map[string]int32
	regNames []string
	mods     []modEmb
	embStore [][]Embedding
	refStore [][]embRef
	costs    []int
	byName   []int32 // module positions in name order
	power    []int   // Pareto power weight per module position
}

// NewScratch returns an empty reusable optimizer scratch.
func NewScratch() *Scratch { return &Scratch{} }

func (s *Scratch) getArena() *searchArena {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := len(s.free); n > 0 {
		a := s.free[n-1]
		s.free = s.free[:n-1]
		return a
	}
	return &searchArena{}
}

func (s *Scratch) putArena(a *searchArena) {
	s.mu.Lock()
	s.free = append(s.free, a)
	s.mu.Unlock()
}

// internReg returns the small id of a register name, assigning one on
// first sight; pad heads and the empty right head intern to -1 (they
// carry no upgrade cost).
func (s *Scratch) internReg(name string) int32 {
	if name == "" || interconnect.IsPad(name) {
		return -1
	}
	if id, ok := s.regID[name]; ok {
		return id
	}
	id := int32(len(s.regNames))
	s.regID[name] = id
	s.regNames = append(s.regNames, name)
	return id
}

func (s *Scratch) resetIntern() {
	if s.regID == nil {
		s.regID = make(map[string]int32)
	} else {
		clear(s.regID)
	}
	s.regNames = s.regNames[:0]
}

func growInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// standaloneCost returns the upgrade area of an embedding considered in
// isolation — extraArea(model, stylesOf({e})) computed directly, without
// materializing the role maps. Used by the per-module pre-sort that
// orders cheap embeddings first.
func standaloneCost(model area.Model, e Embedding) int {
	lReg := e.HeadL != "" && !interconnect.IsPad(e.HeadL)
	rReg := e.HeadR != "" && !interconnect.IsPad(e.HeadR)
	cost := 0
	if (lReg && e.HeadL == e.Tail) || (rReg && e.HeadR == e.Tail) {
		cost += model.StyleExtra(area.CBILBO)
	} else {
		cost += model.StyleExtra(area.SA)
	}
	if lReg && e.HeadL != e.Tail {
		cost += model.StyleExtra(area.TPG)
	}
	// A diagonal module's shared head is one register: count it once.
	if rReg && e.HeadR != e.Tail && !(lReg && e.HeadR == e.HeadL) {
		cost += model.StyleExtra(area.TPG)
	}
	return cost
}
