package pycode

import (
	"fmt"
	"unicode/utf8"
)

// iterator is pycode's one iteration protocol. Next returns the next item,
// or ok == false once the iterable is exhausted. Every consumer of an
// iterable (for loops, comprehensions, unpacking, the builtins) pulls
// through it, so a lazy producer is only asked for what is consumed.
type iterator interface {
	Next() (v Value, ok bool, err error)
}

// Range is Python's range: an arithmetic sequence held as its three
// bounds, so creating, measuring, indexing or iterating one costs O(1)
// memory whatever its length.
type Range struct{ Start, Stop, Step int64 }

// Len is the number of items in the range.
func (r *Range) Len() int64 {
	switch {
	case r.Step > 0 && r.Stop > r.Start:
		return (r.Stop - r.Start + r.Step - 1) / r.Step
	case r.Step < 0 && r.Stop < r.Start:
		return (r.Start - r.Stop - r.Step - 1) / (-r.Step)
	}
	return 0
}

// contains reports membership by arithmetic, without iterating. A float
// is a member when it equals an integer member.
func (r *Range) contains(item Value) bool {
	n, ok := asInt(item)
	if f, isFloat := item.(Float); isFloat && f == Float(int64(f)) {
		n, ok = int64(f), true
	}
	if !ok || r.Step > 0 && (n < r.Start || n >= r.Stop) || r.Step < 0 && (n > r.Start || n <= r.Stop) {
		return false
	}
	return (n-r.Start)%r.Step == 0
}

func (r *Range) repr() string {
	if r.Step == 1 {
		return fmt.Sprintf("range(%d, %d)", r.Start, r.Stop)
	}
	return fmt.Sprintf("range(%d, %d, %d)", r.Start, r.Stop, r.Step)
}

// equal is Python's range equality: equal as sequences.
func (r *Range) equal(o *Range) bool {
	n := r.Len()
	return n == o.Len() && (n == 0 || r.Start == o.Start && (n == 1 || r.Step == o.Step))
}

// Generator is a lazy, single-pass iterator: a generator expression, or
// what enumerate, zip, map and filter return. Once exhausted (or after an
// error) it stays exhausted.
type Generator struct {
	Name string // Python type name: "generator", "zip", ...
	next func() (Value, bool, error)
}

// Next advances the generator.
func (g *Generator) Next() (Value, bool, error) {
	if g.next == nil {
		return nil, false, nil
	}
	v, ok, err := g.next()
	if !ok || err != nil {
		g.next = nil
	}
	return v, ok, err
}

// sliceIter walks a slice by index. A list lends its own Items, so, as
// in CPython, a loop over it sees appends made during the loop.
type sliceIter struct {
	items *[]Value
	i     int
}

func over(items []Value) iterator { return &sliceIter{items: &items} }

func (it *sliceIter) Next() (Value, bool, error) {
	if it.i >= len(*it.items) {
		return nil, false, nil
	}
	it.i++
	return (*it.items)[it.i-1], true, nil
}

type strIter struct{ s string }

func (it *strIter) Next() (Value, bool, error) {
	if it.s == "" {
		return nil, false, nil
	}
	r, n := utf8.DecodeRuneInString(it.s)
	it.s = it.s[n:]
	return Str(string(r)), true, nil
}

// rangeIter charges one step per item: a range is the one iterable that is
// neither held in memory nor produced by stepped code, so without it
// sum(range(10**12)) would run unbudgeted.
type rangeIter struct {
	ip               *Interp
	next, step, left int64
}

func (it *rangeIter) Next() (Value, bool, error) {
	if it.left <= 0 {
		return nil, false, nil
	}
	if err := it.ip.step(nil); err != nil {
		return nil, false, err
	}
	v := it.next
	it.next += it.step
	it.left--
	return Int(v), true, nil
}

// iter returns an iterator over any iterable value. Dicts and sets iterate
// over a snapshot of their keys, so the loop body may mutate them.
func (ip *Interp) iter(v Value) (iterator, error) {
	switch x := v.(type) {
	case *List:
		return &sliceIter{items: &x.Items}, nil
	case *Tuple:
		return over(x.Items), nil
	case Str:
		return &strIter{s: string(x)}, nil
	case *Range:
		return &rangeIter{ip: ip, next: x.Start, step: x.Step, left: x.Len()}, nil
	case *Generator:
		return x, nil
	case *Dict:
		return over(x.Keys()), nil
	case *Set:
		return over(x.Members()), nil
	case *NativeObject:
		if x.Iter != nil {
			items, err := x.Iter()
			if err != nil {
				return nil, err
			}
			return over(items), nil
		}
	}
	return nil, Raise("TypeError", "%s object is not iterable", TypeName(v))
}

// iterate drains v's iterator into a slice, for consumers that need the
// whole sequence at once (sorting, unpacking, joining). A range is
// materialised only here, so the range size cap lives here too.
func (ip *Interp) iterate(v Value) ([]Value, error) {
	if r, ok := v.(*Range); ok && r.Len() > 50_000_000 {
		return nil, Raise("MemoryError", "range too large")
	}
	it, err := ip.iter(v)
	if err != nil {
		return nil, err
	}
	var out []Value
	if n, ok := seqLen(v); ok {
		out = make([]Value, 0, n)
	}
	for {
		item, ok, err := it.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, item)
	}
}

// seqLen is len() for the values that have one.
func seqLen(v Value) (int, bool) {
	switch x := v.(type) {
	case Str:
		return utf8.RuneCountInString(string(x)), true
	case *List:
		return len(x.Items), true
	case *Tuple:
		return len(x.Items), true
	case *Range:
		return int(x.Len()), true
	case *Dict:
		return x.Len(), true
	case *Set:
		return x.Len(), true
	case *NativeObject:
		if x.Length != nil {
			return x.Length(), true
		}
	}
	return 0, false
}
