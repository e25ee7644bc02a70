package freelist

import (
	"runtime"
	"testing"
)

func TestListKeepsUpToMax(t *testing.T) {
	made := 0
	l := List[int]{New: func() *int { made++; return new(int) }, Max: 1}
	a, b := l.Get(), l.Get()
	if made != 2 {
		t.Fatalf("two Gets on an empty list made %d values, want 2", made)
	}
	l.Put(a)
	l.Put(b) // past Max: dropped
	if got := l.Get(); got != a {
		t.Fatal("Get did not return the value kept by the first Put")
	}
	l.Get()
	if made != 3 {
		t.Fatalf("made %d values, want 3: the list kept more than Max", made)
	}
}

// A sync.Pool drops what it holds within two collections; a List must
// not, or what a process holds would depend on when collections ran.
func TestListSurvivesCollections(t *testing.T) {
	l := List[[64]byte]{New: func() *[64]byte { return new([64]byte) }, Max: 2}
	a := l.Get()
	l.Put(a)
	runtime.GC()
	runtime.GC()
	if l.Get() != a {
		t.Fatal("a collection emptied the list")
	}
}

func TestListGetPutAllocs(t *testing.T) {
	l := List[int]{New: func() *int { return new(int) }, Max: 4}
	l.Put(l.Get())
	if n := testing.AllocsPerRun(100, func() { l.Put(l.Get()) }); n != 0 {
		t.Fatalf("Get+Put of a kept value allocates %v times, want 0", n)
	}
}
