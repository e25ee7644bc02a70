package rcache

import (
	"sync"
	"sync/atomic"

	"repro/internal/hashutil"
)

// doorkeeper is the cache's admission filter: a two-generation Bloom
// filter of request shapes, after TinyLFU's doorkeeper (Einziger,
// Friedman, Manes, https://arxiv.org/abs/1512.00727). A miss records
// its shape; the answer is stored only if the shape was already there,
// so a request asked once never costs a resident answer.
//
// Each generation holds about 16 bits per budgeted entry and takes k
// probes per shape. Inserts go to the current generation; membership
// is the union of both. After limit new shapes the older generation is
// cleared and takes over as current, so the filter remembers between
// one and two generations of shapes and forgets the rest. Probes and
// inserts are lock-free atomic word operations; only the rare rotation
// takes a mutex, and a probe that races one may miss a shape (it is
// then asked once more before it is admitted) — never a correctness
// matter, since admission only decides what is worth keeping.
type doorkeeper struct {
	gen   [2][]atomic.Uint64
	cur   atomic.Uint32 // index of the generation taking inserts
	added atomic.Uint64 // new shapes inserted since New
	limit uint64        // new shapes per generation
	bits  uint64        // bits per generation - 1 (a power-of-two mask)

	rotate sync.Mutex
}

// doorProbes is k, the bits a shape sets in a generation. With 16 bits
// per shape and 4 probes, a full generation answers a shape it never
// saw with probability about 0.24 %.
const doorProbes = 4

func newDoorkeeper(limit int) *doorkeeper {
	words := 1
	for words*64 < 16*limit {
		words <<= 1
	}
	d := &doorkeeper{limit: uint64(limit), bits: uint64(words*64) - 1}
	d.gen[0] = make([]atomic.Uint64, words)
	d.gen[1] = make([]atomic.Uint64, words)
	return d
}

// record inserts shape hash h into the current generation and reports
// whether either generation already held it.
func (d *doorkeeper) record(h uint64) (seen bool) {
	cur := d.cur.Load()
	now, prev := d.gen[cur], d.gen[cur^1]
	inNow, inPrev := true, true
	// Kirsch–Mitzenmacher: probe i is h1 + i·h2.
	h1, h2 := h, hashutil.Mix64(h)|1
	for i := uint64(0); i < doorProbes; i++ {
		pos := (h1 + i*h2) & d.bits
		w, bit := pos>>6, uint64(1)<<(pos&63)
		// Load first: a repeated shape finds its bits set and writes
		// nothing. (Go 1.24.0 miscompiles a loop that uses Or's return
		// value, so the result is not taken from Or.)
		if now[w].Load()&bit == 0 {
			now[w].Or(bit)
			inNow = false
		}
		if inPrev && prev[w].Load()&bit == 0 {
			inPrev = false
		}
	}
	if !inNow && d.added.Add(1)%d.limit == 0 {
		d.turn()
	}
	return inNow || inPrev
}

// turn clears the older generation and makes it the current one.
func (d *doorkeeper) turn() {
	d.rotate.Lock()
	defer d.rotate.Unlock()
	old := d.cur.Load() ^ 1
	for i := range d.gen[old] {
		d.gen[old][i].Store(0)
	}
	d.cur.Store(old)
}
