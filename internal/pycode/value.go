package pycode

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Value is any pycode runtime value. Concrete types:
//
//	NoneVal, Bool, Int, Float, Str, *List, *Tuple, *Dict, *Set, *Range,
//	*Generator, *Function, *BoundMethod, *NativeFunc, *Class, *Instance, *Module,
//	*NativeObject
type Value interface{}

// NoneVal is the Python None singleton type.
type NoneVal struct{}

// None is the canonical None value.
var None = NoneVal{}

// Bool is a Python bool.
type Bool bool

// Int is a Python int (64-bit in this subset).
type Int int64

// Float is a Python float.
type Float float64

// Str is a Python str.
type Str string

// List is a mutable Python list.
type List struct{ Items []Value }

// NewList builds a list value from items.
func NewList(items ...Value) *List { return &List{Items: items} }

// Tuple is an immutable Python tuple.
type Tuple struct{ Items []Value }

// Dict is a Python dict preserving insertion order.
type Dict struct {
	keys  []string // encoded keys in insertion order
	items map[string]dictEntry
}

type dictEntry struct {
	key Value
	val Value
}

// NewDict returns an empty dict.
func NewDict() *Dict { return &Dict{items: map[string]dictEntry{}} }

// Len returns the number of entries.
func (d *Dict) Len() int { return len(d.keys) }

// Set inserts or updates a key.
func (d *Dict) Set(key, val Value) error {
	k, err := hashKey(key)
	if err != nil {
		return err
	}
	if _, ok := d.items[k]; !ok {
		d.keys = append(d.keys, k)
	}
	d.items[k] = dictEntry{key: key, val: val}
	return nil
}

// Get fetches a key; ok is false when absent.
func (d *Dict) Get(key Value) (Value, bool, error) {
	k, err := hashKey(key)
	if err != nil {
		return nil, false, err
	}
	e, ok := d.items[k]
	if !ok {
		return nil, false, nil
	}
	return e.val, true, nil
}

// Delete removes a key; reports whether it was present.
func (d *Dict) Delete(key Value) (bool, error) {
	k, err := hashKey(key)
	if err != nil {
		return false, err
	}
	if _, ok := d.items[k]; !ok {
		return false, nil
	}
	delete(d.items, k)
	for i, kk := range d.keys {
		if kk == k {
			d.keys = append(d.keys[:i], d.keys[i+1:]...)
			break
		}
	}
	return true, nil
}

// Keys returns keys in insertion order.
func (d *Dict) Keys() []Value {
	out := make([]Value, 0, len(d.keys))
	for _, k := range d.keys {
		out = append(out, d.items[k].key)
	}
	return out
}

// Values returns values in insertion order.
func (d *Dict) Values() []Value {
	out := make([]Value, 0, len(d.keys))
	for _, k := range d.keys {
		out = append(out, d.items[k].val)
	}
	return out
}

// Items returns (key, value) pairs in insertion order.
func (d *Dict) Items() [][2]Value {
	out := make([][2]Value, 0, len(d.keys))
	for _, k := range d.keys {
		e := d.items[k]
		out = append(out, [2]Value{e.key, e.val})
	}
	return out
}

// Set is a Python set backed by the same key encoding as Dict.
type Set struct {
	keys  []string
	items map[string]Value
}

// NewSet returns an empty set.
func NewSet() *Set { return &Set{items: map[string]Value{}} }

// Add inserts a member.
func (s *Set) Add(v Value) error {
	k, err := hashKey(v)
	if err != nil {
		return err
	}
	if _, ok := s.items[k]; !ok {
		s.keys = append(s.keys, k)
		s.items[k] = v
	}
	return nil
}

// Has reports membership.
func (s *Set) Has(v Value) (bool, error) {
	k, err := hashKey(v)
	if err != nil {
		return false, err
	}
	_, ok := s.items[k]
	return ok, nil
}

// Len returns the member count.
func (s *Set) Len() int { return len(s.keys) }

// Members returns members in insertion order.
func (s *Set) Members() []Value {
	out := make([]Value, 0, len(s.keys))
	for _, k := range s.keys {
		out = append(out, s.items[k])
	}
	return out
}

// hashKey encodes a hashable value as a map key string.
func hashKey(v Value) (string, error) {
	switch x := v.(type) {
	case NoneVal:
		return "N", nil
	case Bool:
		if x {
			return "b1", nil
		}
		return "b0", nil
	case Int:
		return "i" + fmt.Sprint(int64(x)), nil
	case Float:
		f := float64(x)
		if f == math.Trunc(f) && !math.IsInf(f, 0) {
			return "i" + fmt.Sprint(int64(f)), nil // 1.0 and 1 hash equal
		}
		return "f" + fmt.Sprint(f), nil
	case Str:
		return "s" + string(x), nil
	case *Tuple:
		parts := make([]string, len(x.Items))
		for i, it := range x.Items {
			p, err := hashKey(it)
			if err != nil {
				return "", err
			}
			parts[i] = p
		}
		return "t(" + strings.Join(parts, ",") + ")", nil
	default:
		return "", fmt.Errorf("unhashable type: %s", TypeName(v))
	}
}

// Function is a user-defined function or method.
type Function struct {
	Name    string
	Params  []Param
	Body    []Stmt
	Closure *Env
	Doc     string
}

// BoundMethod couples an instance with a function.
type BoundMethod struct {
	Self Value
	Fn   *Function
}

// NativeFunc is a builtin implemented in Go.
type NativeFunc struct {
	Name string
	Fn   func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error)
}

// NativeBound couples a receiver with a native function (e.g. list.append).
type NativeBound struct {
	Name string
	Fn   func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error)
}

// Class is a user-defined or native-backed class.
type Class struct {
	Name    string
	Base    *Class
	Methods map[string]*Function
	Statics map[string]Value // class attributes
	Doc     string
	// NativeInit, when non-nil, runs before any user __init__ (used for the
	// PE base classes injected by the dataflow engine).
	NativeInit func(ip *Interp, self *Instance, args []Value) error
	// NativeMethods are Go-implemented methods available on instances.
	NativeMethods map[string]func(ip *Interp, self *Instance, args []Value, kwargs map[string]Value) (Value, error)
}

// IsSubclassOf walks the base chain.
func (c *Class) IsSubclassOf(other *Class) bool {
	for k := c; k != nil; k = k.Base {
		if k == other {
			return true
		}
	}
	return false
}

// lookupMethod finds a method in the class hierarchy.
func (c *Class) lookupMethod(name string) (*Function, bool) {
	for k := c; k != nil; k = k.Base {
		if m, ok := k.Methods[name]; ok {
			return m, true
		}
	}
	return nil, false
}

func (c *Class) lookupNative(name string) (func(ip *Interp, self *Instance, args []Value, kwargs map[string]Value) (Value, error), bool) {
	for k := c; k != nil; k = k.Base {
		if m, ok := k.NativeMethods[name]; ok {
			return m, true
		}
	}
	return nil, false
}

func (c *Class) lookupStatic(name string) (Value, bool) {
	for k := c; k != nil; k = k.Base {
		if v, ok := k.Statics[name]; ok {
			return v, true
		}
	}
	return nil, false
}

// Instance is an object of a user-defined class.
type Instance struct {
	Class *Class
	Attrs map[string]Value
}

// NewInstance allocates an instance with an empty attribute map.
func NewInstance(c *Class) *Instance {
	return &Instance{Class: c, Attrs: map[string]Value{}}
}

// Module is an importable module with attributes.
type Module struct {
	Name  string
	Attrs map[string]Value
}

// NativeObject wraps an arbitrary Go object exposed to pycode. Attr resolves
// attribute access (methods should return *NativeFunc or values).
type NativeObject struct {
	TypeName string
	Data     any
	Attr     func(name string) (Value, bool)
	// Str overrides string conversion when non-nil.
	Str func() string
	// Iter, when non-nil, yields the iteration items.
	Iter func() ([]Value, error)
	// Length, when non-nil, provides len().
	Length func() int
}

// TypeName reports the Python-style type name of a value.
func TypeName(v Value) string {
	switch x := v.(type) {
	case NoneVal:
		return "NoneType"
	case Bool:
		return "bool"
	case Int:
		return "int"
	case Float:
		return "float"
	case Str:
		return "str"
	case *List:
		return "list"
	case *Tuple:
		return "tuple"
	case *Dict:
		return "dict"
	case *Set:
		return "set"
	case *Range:
		return "range"
	case *Generator:
		return x.Name
	case *Function:
		return "function"
	case *BoundMethod:
		return "method"
	case *NativeFunc:
		return "builtin_function_or_method"
	case *NativeBound:
		return "builtin_function_or_method"
	case *Class:
		return "type"
	case *Instance:
		return x.Class.Name
	case *Module:
		return "module"
	case *NativeObject:
		return x.TypeName
	case nil:
		return "NoneType"
	default:
		return fmt.Sprintf("%T", v)
	}
}

// Truthy implements Python truthiness.
func Truthy(v Value) bool {
	switch x := v.(type) {
	case NoneVal, nil:
		return false
	case Bool:
		return bool(x)
	case Int:
		return x != 0
	case Float:
		return x != 0
	case Str:
		return len(x) != 0
	case *List:
		return len(x.Items) != 0
	case *Tuple:
		return len(x.Items) != 0
	case *Dict:
		return x.Len() != 0
	case *Set:
		return x.Len() != 0
	case *Range:
		return x.Len() != 0
	default:
		return true
	}
}

// Equal implements Python ==.
func Equal(a, b Value) bool {
	switch x := a.(type) {
	case NoneVal:
		_, ok := b.(NoneVal)
		return ok
	case Bool:
		if y, ok := b.(Bool); ok {
			return x == y
		}
		// Python: True == 1
		if fa, ok := toFloat(a); ok {
			if fb, ok2 := toFloat(b); ok2 {
				return fa == fb
			}
		}
		return false
	case Int, Float:
		fa, _ := toFloat(a)
		fb, ok := toFloat(b)
		return ok && fa == fb
	case Str:
		y, ok := b.(Str)
		return ok && x == y
	case *List:
		y, ok := b.(*List)
		if !ok || len(x.Items) != len(y.Items) {
			return false
		}
		for i := range x.Items {
			if !Equal(x.Items[i], y.Items[i]) {
				return false
			}
		}
		return true
	case *Tuple:
		y, ok := b.(*Tuple)
		if !ok || len(x.Items) != len(y.Items) {
			return false
		}
		for i := range x.Items {
			if !Equal(x.Items[i], y.Items[i]) {
				return false
			}
		}
		return true
	case *Dict:
		y, ok := b.(*Dict)
		if !ok || x.Len() != y.Len() {
			return false
		}
		for _, kv := range x.Items() {
			v2, found, err := y.Get(kv[0])
			if err != nil || !found || !Equal(kv[1], v2) {
				return false
			}
		}
		return true
	case *Set:
		y, ok := b.(*Set)
		if !ok || x.Len() != y.Len() {
			return false
		}
		for _, m := range x.Members() {
			has, err := y.Has(m)
			if err != nil || !has {
				return false
			}
		}
		return true
	case *Range:
		y, ok := b.(*Range)
		return ok && x.equal(y)
	default:
		return a == b
	}
}

// Compare orders two values, returning -1, 0 or 1. Only numbers, strings and
// sequences of comparables are ordered.
func Compare(a, b Value) (int, error) {
	fa, okA := toFloat(a)
	fb, okB := toFloat(b)
	if okA && okB {
		switch {
		case fa < fb:
			return -1, nil
		case fa > fb:
			return 1, nil
		default:
			return 0, nil
		}
	}
	if sa, ok := a.(Str); ok {
		if sb, ok := b.(Str); ok {
			return strings.Compare(string(sa), string(sb)), nil
		}
	}
	la, okLA := sequenceItems(a)
	lb, okLB := sequenceItems(b)
	if okLA && okLB {
		for i := 0; i < len(la) && i < len(lb); i++ {
			c, err := Compare(la[i], lb[i])
			if err != nil {
				return 0, err
			}
			if c != 0 {
				return c, nil
			}
		}
		switch {
		case len(la) < len(lb):
			return -1, nil
		case len(la) > len(lb):
			return 1, nil
		default:
			return 0, nil
		}
	}
	return 0, fmt.Errorf("'<' not supported between instances of %q and %q", TypeName(a), TypeName(b))
}

func sequenceItems(v Value) ([]Value, bool) {
	switch x := v.(type) {
	case *List:
		return x.Items, true
	case *Tuple:
		return x.Items, true
	default:
		return nil, false
	}
}

func toFloat(v Value) (float64, bool) {
	switch x := v.(type) {
	case Int:
		return float64(x), true
	case Float:
		return float64(x), true
	case Bool:
		if x {
			return 1, true
		}
		return 0, true
	default:
		return 0, false
	}
}

// Repr renders a value the way Python's repr() would (close enough for
// printing and tests).
func Repr(v Value) string {
	switch x := v.(type) {
	case NoneVal, nil:
		return "None"
	case Bool:
		if x {
			return "True"
		}
		return "False"
	case Int:
		return fmt.Sprint(int64(x))
	case Float:
		return formatFloat(float64(x))
	case Str:
		return "'" + strings.ReplaceAll(string(x), "'", "\\'") + "'"
	case *List:
		parts := make([]string, len(x.Items))
		for i, it := range x.Items {
			parts[i] = Repr(it)
		}
		return "[" + strings.Join(parts, ", ") + "]"
	case *Tuple:
		parts := make([]string, len(x.Items))
		for i, it := range x.Items {
			parts[i] = Repr(it)
		}
		if len(parts) == 1 {
			return "(" + parts[0] + ",)"
		}
		return "(" + strings.Join(parts, ", ") + ")"
	case *Dict:
		var parts []string
		for _, kv := range x.Items() {
			parts = append(parts, Repr(kv[0])+": "+Repr(kv[1]))
		}
		return "{" + strings.Join(parts, ", ") + "}"
	case *Set:
		if x.Len() == 0 {
			return "set()"
		}
		var parts []string
		for _, m := range x.Members() {
			parts = append(parts, Repr(m))
		}
		return "{" + strings.Join(parts, ", ") + "}"
	case *Range:
		return x.repr()
	case *Generator:
		return "<" + x.Name + " object>"
	case *Function:
		return "<function " + x.Name + ">"
	case *BoundMethod:
		return "<bound method " + x.Fn.Name + ">"
	case *NativeFunc:
		return "<built-in function " + x.Name + ">"
	case *NativeBound:
		return "<built-in method " + x.Name + ">"
	case *Class:
		return "<class '" + x.Name + "'>"
	case *Instance:
		return "<" + x.Class.Name + " object>"
	case *Module:
		return "<module '" + x.Name + "'>"
	case *NativeObject:
		if x.Str != nil {
			return x.Str()
		}
		return "<" + x.TypeName + " object>"
	default:
		return fmt.Sprint(v)
	}
}

// ToStr renders a value the way Python's str() would.
func ToStr(v Value) string {
	switch x := v.(type) {
	case Str:
		return string(x)
	case *NativeObject:
		if x.Str != nil {
			return x.Str()
		}
	}
	return Repr(v)
}

// formatFloat matches Python's float display: integral floats keep ".0".
func formatFloat(f float64) string {
	if math.IsInf(f, 1) {
		return "inf"
	}
	if math.IsInf(f, -1) {
		return "-inf"
	}
	if math.IsNaN(f) {
		return "nan"
	}
	if f == math.Trunc(f) && math.Abs(f) < 1e16 {
		return fmt.Sprintf("%.1f", f)
	}
	return fmt.Sprint(f)
}

// SortValues sorts values in place using Compare, optionally via a key fn.
func SortValues(ip *Interp, items []Value, keyFn Value, reverse bool) error {
	keys := items
	if keyFn != nil {
		if _, isNone := keyFn.(NoneVal); !isNone {
			keys = make([]Value, len(items))
			for i, it := range items {
				k, err := ip.Call(keyFn, it)
				if err != nil {
					return err
				}
				keys[i] = k
			}
		}
	}
	idx := make([]int, len(items))
	for i := range idx {
		idx[i] = i
	}
	var sortErr error
	sort.SliceStable(idx, func(i, j int) bool {
		if sortErr != nil {
			return false
		}
		c, err := Compare(keys[idx[i]], keys[idx[j]])
		if err != nil {
			sortErr = err
			return false
		}
		if reverse {
			return c > 0
		}
		return c < 0
	})
	if sortErr != nil {
		return sortErr
	}
	out := make([]Value, len(items))
	for i, j := range idx {
		out[i] = items[j]
	}
	copy(items, out)
	return nil
}

// GoValue converts a pycode value into a plain Go value (for transport across
// the dataflow engine): None→nil, Int→int64, Float→float64, Str→string,
// Bool→bool, List/Tuple→[]any, Dict→map[string]any (string keys only).
func GoValue(v Value) any {
	switch x := v.(type) {
	case NoneVal, nil:
		return nil
	case Bool:
		return bool(x)
	case Int:
		return int64(x)
	case Float:
		return float64(x)
	case Str:
		return string(x)
	case *List:
		out := make([]any, len(x.Items))
		for i, it := range x.Items {
			out[i] = GoValue(it)
		}
		return out
	case *Tuple:
		out := make([]any, len(x.Items))
		for i, it := range x.Items {
			out[i] = GoValue(it)
		}
		return out
	case *Dict:
		out := make(map[string]any, x.Len())
		for _, kv := range x.Items() {
			out[ToStr(kv[0])] = GoValue(kv[1])
		}
		return out
	default:
		return Repr(v)
	}
}

// FromGo converts a plain Go value into a pycode value. []any becomes a
// tuple when fromTuple is set (used for stream records that were tuples).
func FromGo(v any) Value {
	switch x := v.(type) {
	case nil:
		return None
	case bool:
		return Bool(x)
	case int:
		return Int(int64(x))
	case int64:
		return Int(x)
	case int32:
		return Int(int64(x))
	case float64:
		return Float(x)
	case float32:
		return Float(float64(x))
	case string:
		return Str(x)
	case []any:
		items := make([]Value, len(x))
		for i, it := range x {
			items[i] = FromGo(it)
		}
		return &List{Items: items}
	case map[string]any:
		d := NewDict()
		// deterministic order for reproducibility
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			_ = d.Set(Str(k), FromGo(x[k]))
		}
		return d
	case Value:
		return x
	default:
		return Str(fmt.Sprint(v))
	}
}
