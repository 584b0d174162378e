package pycode

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

func nf(name string, fn func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error)) *NativeFunc {
	return &NativeFunc{Name: name, Fn: fn}
}

func wantArgs(name string, args []Value, min, max int) error {
	if len(args) < min || (max >= 0 && len(args) > max) {
		if min == max {
			return Raise("TypeError", "%s() takes %d argument(s), got %d", name, min, len(args))
		}
		return Raise("TypeError", "%s() takes %d..%d arguments, got %d", name, min, max, len(args))
	}
	return nil
}

// builtinTable constructs the builtin namespace.
func builtinTable(ip *Interp) map[string]Value {
	b := map[string]Value{}

	b["print"] = nf("print", func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
		sep := " "
		end := "\n"
		if v, ok := kwargs["sep"]; ok {
			sep = ToStr(v)
		}
		if v, ok := kwargs["end"]; ok {
			end = ToStr(v)
		}
		parts := make([]string, len(args))
		for i, a := range args {
			parts[i] = ToStr(a)
		}
		fmt.Fprint(ip.opts.Stdout, strings.Join(parts, sep)+end)
		return None, nil
	})

	b["range"] = nf("range", func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
		if err := wantArgs("range", args, 1, 3); err != nil {
			return nil, err
		}
		var start, stop, step int64 = 0, 0, 1
		switch len(args) {
		case 1:
			v, ok := asInt(args[0])
			if !ok {
				return nil, Raise("TypeError", "range() arg must be int")
			}
			stop = v
		case 2, 3:
			v1, ok1 := asInt(args[0])
			v2, ok2 := asInt(args[1])
			if !ok1 || !ok2 {
				return nil, Raise("TypeError", "range() args must be int")
			}
			start, stop = v1, v2
			if len(args) == 3 {
				v3, ok3 := asInt(args[2])
				if !ok3 || v3 == 0 {
					return nil, Raise("ValueError", "range() step must be nonzero int")
				}
				step = v3
			}
		}
		return &Range{Start: start, Stop: stop, Step: step}, nil
	})

	b["len"] = nf("len", func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
		if err := wantArgs("len", args, 1, 1); err != nil {
			return nil, err
		}
		if n, ok := seqLen(args[0]); ok {
			return Int(n), nil
		}
		return nil, Raise("TypeError", "object of type %s has no len()", TypeName(args[0]))
	})

	b["abs"] = nf("abs", func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
		if err := wantArgs("abs", args, 1, 1); err != nil {
			return nil, err
		}
		switch x := args[0].(type) {
		case Int:
			if x < 0 {
				return -x, nil
			}
			return x, nil
		case Float:
			return Float(math.Abs(float64(x))), nil
		}
		return nil, Raise("TypeError", "bad operand type for abs(): %s", TypeName(args[0]))
	})

	minmax := func(name string, wantMax bool) *NativeFunc {
		return nf(name, func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
			items := over(args)
			if len(args) == 1 {
				it, err := ip.iter(args[0])
				if err != nil {
					return nil, err
				}
				items = it
			}
			best, ok, err := items.Next()
			if err != nil {
				return nil, err
			}
			if !ok {
				return nil, Raise("ValueError", "%s() arg is an empty sequence", name)
			}
			keyFn := kwargs["key"]
			bestKey := best
			if keyFn != nil {
				k, err := ip.Call(keyFn, best)
				if err != nil {
					return nil, err
				}
				bestKey = k
			}
			for {
				it, ok, err := items.Next()
				if err != nil {
					return nil, err
				}
				if !ok {
					return best, nil
				}
				k := it
				if keyFn != nil {
					kk, err := ip.Call(keyFn, it)
					if err != nil {
						return nil, err
					}
					k = kk
				}
				c, err := Compare(k, bestKey)
				if err != nil {
					return nil, err
				}
				if (wantMax && c > 0) || (!wantMax && c < 0) {
					best, bestKey = it, k
				}
			}
		})
	}
	b["min"] = minmax("min", false)
	b["max"] = minmax("max", true)

	b["sum"] = nf("sum", func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
		if err := wantArgs("sum", args, 1, 2); err != nil {
			return nil, err
		}
		items, err := ip.iter(args[0])
		if err != nil {
			return nil, err
		}
		var acc Value = Int(0)
		if len(args) == 2 {
			acc = args[1]
		}
		for {
			it, ok, err := items.Next()
			if err != nil {
				return nil, err
			}
			if !ok {
				return acc, nil
			}
			if acc, err = numericOp("+", acc, it); err != nil {
				return nil, err
			}
		}
	})

	// all and any stop at the first item that decides them.
	allAny := func(name string, stopAt bool) *NativeFunc {
		return nf(name, func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
			if err := wantArgs(name, args, 1, 1); err != nil {
				return nil, err
			}
			items, err := ip.iter(args[0])
			if err != nil {
				return nil, err
			}
			for {
				it, ok, err := items.Next()
				if err != nil {
					return nil, err
				}
				if !ok {
					return Bool(!stopAt), nil
				}
				if Truthy(it) == stopAt {
					return Bool(stopAt), nil
				}
			}
		})
	}
	b["all"] = allAny("all", false)
	b["any"] = allAny("any", true)

	b["sorted"] = nf("sorted", func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
		if err := wantArgs("sorted", args, 1, 1); err != nil {
			return nil, err
		}
		items, err := ip.iterate(args[0])
		if err != nil {
			return nil, err
		}
		reverse := false
		if r, ok := kwargs["reverse"]; ok {
			reverse = Truthy(r)
		}
		if err := SortValues(ip, items, kwargs["key"], reverse); err != nil {
			return nil, err
		}
		return &List{Items: items}, nil
	})

	b["reversed"] = nf("reversed", func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
		if err := wantArgs("reversed", args, 1, 1); err != nil {
			return nil, err
		}
		items, err := ip.iterate(args[0])
		if err != nil {
			return nil, err
		}
		out := make([]Value, len(items))
		for i, it := range items {
			out[len(items)-1-i] = it
		}
		return &List{Items: out}, nil
	})

	b["enumerate"] = nf("enumerate", func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
		if err := wantArgs("enumerate", args, 1, 2); err != nil {
			return nil, err
		}
		items, err := ip.iter(args[0])
		if err != nil {
			return nil, err
		}
		n := int64(0)
		if len(args) == 2 {
			s, ok := asInt(args[1])
			if !ok {
				return nil, Raise("TypeError", "enumerate() start must be int")
			}
			n = s
		}
		return &Generator{Name: "enumerate", next: func() (Value, bool, error) {
			it, ok, err := items.Next()
			if !ok || err != nil {
				return nil, false, err
			}
			n++
			return &Tuple{Items: []Value{Int(n - 1), it}}, true, nil
		}}, nil
	})

	b["zip"] = nf("zip", func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
		its := make([]iterator, len(args))
		for i, a := range args {
			it, err := ip.iter(a)
			if err != nil {
				return nil, err
			}
			its[i] = it
		}
		// Like CPython, a row pulls from each iterable in turn and stops at
		// the first one that is exhausted.
		return &Generator{Name: "zip", next: func() (Value, bool, error) {
			if len(its) == 0 {
				return nil, false, nil
			}
			row := make([]Value, len(its))
			for j, it := range its {
				v, ok, err := it.Next()
				if !ok || err != nil {
					return nil, false, err
				}
				row[j] = v
			}
			return &Tuple{Items: row}, true, nil
		}}, nil
	})

	b["map"] = nf("map", func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
		if err := wantArgs("map", args, 2, 2); err != nil {
			return nil, err
		}
		items, err := ip.iter(args[1])
		if err != nil {
			return nil, err
		}
		return &Generator{Name: "map", next: func() (Value, bool, error) {
			it, ok, err := items.Next()
			if !ok || err != nil {
				return nil, false, err
			}
			v, err := ip.Call(args[0], it)
			return v, err == nil, err
		}}, nil
	})

	b["filter"] = nf("filter", func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
		if err := wantArgs("filter", args, 2, 2); err != nil {
			return nil, err
		}
		items, err := ip.iter(args[1])
		if err != nil {
			return nil, err
		}
		_, byTruth := args[0].(NoneVal)
		return &Generator{Name: "filter", next: func() (Value, bool, error) {
			for {
				it, ok, err := items.Next()
				if !ok || err != nil {
					return nil, false, err
				}
				keep := it
				if !byTruth {
					if keep, err = ip.Call(args[0], it); err != nil {
						return nil, false, err
					}
				}
				if Truthy(keep) {
					return it, true, nil
				}
			}
		}}, nil
	})

	b["int"] = nf("int", func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
		if len(args) == 0 {
			return Int(0), nil
		}
		switch x := args[0].(type) {
		case Int:
			return x, nil
		case Float:
			return Int(int64(math.Trunc(float64(x)))), nil
		case Bool:
			if x {
				return Int(1), nil
			}
			return Int(0), nil
		case Str:
			s := strings.TrimSpace(string(x))
			n, err := strconv.ParseInt(s, 10, 64)
			if err != nil {
				return nil, Raise("ValueError", "invalid literal for int() with base 10: %q", s)
			}
			return Int(n), nil
		}
		return nil, Raise("TypeError", "int() argument must be a string or a number, not %s", TypeName(args[0]))
	})

	b["float"] = nf("float", func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
		if len(args) == 0 {
			return Float(0), nil
		}
		switch x := args[0].(type) {
		case Int:
			return Float(float64(x)), nil
		case Float:
			return x, nil
		case Bool:
			if x {
				return Float(1), nil
			}
			return Float(0), nil
		case Str:
			s := strings.TrimSpace(string(x))
			f, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return nil, Raise("ValueError", "could not convert string to float: %q", s)
			}
			return Float(f), nil
		}
		return nil, Raise("TypeError", "float() argument must be a string or a number, not %s", TypeName(args[0]))
	})

	b["str"] = nf("str", func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
		if len(args) == 0 {
			return Str(""), nil
		}
		return Str(ToStr(args[0])), nil
	})

	b["repr"] = nf("repr", func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
		if err := wantArgs("repr", args, 1, 1); err != nil {
			return nil, err
		}
		return Str(Repr(args[0])), nil
	})

	b["bool"] = nf("bool", func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
		if len(args) == 0 {
			return Bool(false), nil
		}
		return Bool(Truthy(args[0])), nil
	})

	b["list"] = nf("list", func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
		if len(args) == 0 {
			return &List{}, nil
		}
		items, err := ip.iterate(args[0])
		if err != nil {
			return nil, err
		}
		return &List{Items: items}, nil
	})

	b["tuple"] = nf("tuple", func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
		if len(args) == 0 {
			return &Tuple{}, nil
		}
		items, err := ip.iterate(args[0])
		if err != nil {
			return nil, err
		}
		return &Tuple{Items: items}, nil
	})

	b["dict"] = nf("dict", func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
		d := NewDict()
		if len(args) == 1 {
			if src, ok := args[0].(*Dict); ok {
				for _, kv := range src.Items() {
					if err := d.Set(kv[0], kv[1]); err != nil {
						return nil, Raise("TypeError", "%s", err)
					}
				}
			} else {
				pairs, err := ip.iterate(args[0])
				if err != nil {
					return nil, err
				}
				for _, p := range pairs {
					kv, err := ip.iterate(p)
					if err != nil || len(kv) != 2 {
						return nil, Raise("ValueError", "dict update sequence elements must be pairs")
					}
					if err := d.Set(kv[0], kv[1]); err != nil {
						return nil, Raise("TypeError", "%s", err)
					}
				}
			}
		}
		for k, v := range kwargs {
			if err := d.Set(Str(k), v); err != nil {
				return nil, Raise("TypeError", "%s", err)
			}
		}
		return d, nil
	})

	b["set"] = nf("set", func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
		s := NewSet()
		if len(args) == 0 {
			return s, nil
		}
		items, err := ip.iter(args[0])
		if err != nil {
			return nil, err
		}
		for {
			it, ok, err := items.Next()
			if err != nil {
				return nil, err
			}
			if !ok {
				return s, nil
			}
			if err := s.Add(it); err != nil {
				return nil, Raise("TypeError", "%s", err)
			}
		}
	})

	b["round"] = nf("round", func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
		if err := wantArgs("round", args, 1, 2); err != nil {
			return nil, err
		}
		f, ok := toFloat(args[0])
		if !ok {
			return nil, Raise("TypeError", "round() argument must be a number")
		}
		digits := int64(0)
		hasDigits := len(args) == 2
		if hasDigits {
			d, ok := asInt(args[1])
			if !ok {
				return nil, Raise("TypeError", "round() ndigits must be int")
			}
			digits = d
		}
		scale := math.Pow(10, float64(digits))
		r := math.RoundToEven(f*scale) / scale
		if !hasDigits {
			return Int(int64(r)), nil
		}
		return Float(r), nil
	})

	b["isinstance"] = nf("isinstance", func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
		if err := wantArgs("isinstance", args, 2, 2); err != nil {
			return nil, err
		}
		check := func(v Value, t Value) bool {
			switch tv := t.(type) {
			case *Class:
				if inst, ok := v.(*Instance); ok {
					return inst.Class.IsSubclassOf(tv)
				}
				return false
			case *NativeFunc:
				switch tv.Name {
				case "int":
					_, ok := v.(Int)
					if !ok {
						_, ok = v.(Bool)
					}
					return ok
				case "float":
					_, ok := v.(Float)
					return ok
				case "str":
					_, ok := v.(Str)
					return ok
				case "bool":
					_, ok := v.(Bool)
					return ok
				case "list":
					_, ok := v.(*List)
					return ok
				case "dict":
					_, ok := v.(*Dict)
					return ok
				case "tuple":
					_, ok := v.(*Tuple)
					return ok
				case "set":
					_, ok := v.(*Set)
					return ok
				}
			}
			return false
		}
		if types, ok := args[1].(*Tuple); ok {
			for _, t := range types.Items {
				if check(args[0], t) {
					return Bool(true), nil
				}
			}
			return Bool(false), nil
		}
		return Bool(check(args[0], args[1])), nil
	})

	b["type"] = nf("type", func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
		if err := wantArgs("type", args, 1, 1); err != nil {
			return nil, err
		}
		if inst, ok := args[0].(*Instance); ok {
			return inst.Class, nil
		}
		return Str(TypeName(args[0])), nil
	})

	b["hasattr"] = nf("hasattr", func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
		if err := wantArgs("hasattr", args, 2, 2); err != nil {
			return nil, err
		}
		name, ok := args[1].(Str)
		if !ok {
			return nil, Raise("TypeError", "hasattr() attribute name must be str")
		}
		_, err := ip.getAttr(args[0], string(name))
		return Bool(err == nil), nil
	})

	b["getattr"] = nf("getattr", func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
		if err := wantArgs("getattr", args, 2, 3); err != nil {
			return nil, err
		}
		name, ok := args[1].(Str)
		if !ok {
			return nil, Raise("TypeError", "getattr() attribute name must be str")
		}
		v, err := ip.getAttr(args[0], string(name))
		if err != nil {
			if len(args) == 3 {
				return args[2], nil
			}
			return nil, err
		}
		return v, nil
	})

	b["setattr"] = nf("setattr", func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
		if err := wantArgs("setattr", args, 3, 3); err != nil {
			return nil, err
		}
		name, ok := args[1].(Str)
		if !ok {
			return nil, Raise("TypeError", "setattr() attribute name must be str")
		}
		return None, ip.setAttr(args[0], string(name), args[2])
	})

	b["open"] = nf("open", func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
		if err := wantArgs("open", args, 1, 2); err != nil {
			return nil, err
		}
		pathV, ok := args[0].(Str)
		if !ok {
			return nil, Raise("TypeError", "open() path must be str")
		}
		if ip.opts.ResourceDir == "" {
			return nil, Raise("PermissionError", "file access is disabled in this execution environment")
		}
		rel := filepath.Clean(string(pathV))
		rel = strings.TrimPrefix(rel, "resources/")
		rel = strings.TrimPrefix(rel, "resources"+string(filepath.Separator))
		full := filepath.Join(ip.opts.ResourceDir, rel)
		if !strings.HasPrefix(full, filepath.Clean(ip.opts.ResourceDir)) {
			return nil, Raise("PermissionError", "path escapes the resources directory")
		}
		data, err := os.ReadFile(full)
		if err != nil {
			return nil, Raise("FileNotFoundError", "no such file: %s", pathV)
		}
		return newFileObject(string(pathV), string(data)), nil
	})

	b["Exception"] = nf("Exception", func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
		msg := ""
		if len(args) > 0 {
			msg = ToStr(args[0])
		}
		return nil, &RuntimeErr{Type: "Exception", Msg: msg, Val: Str(msg)}
	})

	b["ValueError"] = errorRaiser("ValueError")
	b["TypeError"] = errorRaiser("TypeError")
	b["KeyError"] = errorRaiser("KeyError")
	b["RuntimeError"] = errorRaiser("RuntimeError")

	b["id"] = nf("id", func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
		if err := wantArgs("id", args, 1, 1); err != nil {
			return nil, err
		}
		return Int(int64(fmtHash(Repr(args[0])))), nil
	})

	b["divmod"] = nf("divmod", func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
		if err := wantArgs("divmod", args, 2, 2); err != nil {
			return nil, err
		}
		q, err := numericOp("//", args[0], args[1])
		if err != nil {
			return nil, err
		}
		r, err := numericOp("%", args[0], args[1])
		if err != nil {
			return nil, err
		}
		return &Tuple{Items: []Value{q, r}}, nil
	})

	return b
}

// errorRaiser returns a callable that, when invoked, raises the named error.
// This models `raise ValueError("msg")`.
func errorRaiser(typ string) *NativeFunc {
	return nf(typ, func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
		msg := ""
		if len(args) > 0 {
			msg = ToStr(args[0])
		}
		return nil, &RuntimeErr{Type: typ, Msg: msg, Val: Str(msg)}
	})
}

func fmtHash(s string) uint32 {
	var h uint32 = 2166136261
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// newFileObject wraps file contents for pycode.
func newFileObject(name, content string) *NativeObject {
	closed := false
	obj := &NativeObject{TypeName: "file"}
	obj.Str = func() string { return "<file " + name + ">" }
	obj.Attr = func(attr string) (Value, bool) {
		switch attr {
		case "read":
			return nf("read", func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
				if closed {
					return nil, Raise("ValueError", "I/O operation on closed file")
				}
				return Str(content), nil
			}), true
		case "readlines":
			return nf("readlines", func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
				if closed {
					return nil, Raise("ValueError", "I/O operation on closed file")
				}
				var items []Value
				lines := strings.SplitAfter(content, "\n")
				for _, l := range lines {
					if l == "" {
						continue
					}
					items = append(items, Str(l))
				}
				return &List{Items: items}, nil
			}), true
		case "close":
			return nf("close", func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
				closed = true
				return None, nil
			}), true
		case "name":
			return Str(name), true
		}
		return nil, false
	}
	obj.Iter = func() ([]Value, error) {
		if closed {
			return nil, Raise("ValueError", "I/O operation on closed file")
		}
		var items []Value
		for _, l := range strings.SplitAfter(content, "\n") {
			if l == "" {
				continue
			}
			items = append(items, Str(l))
		}
		return items, nil
	}
	return obj
}

// ---- methods on builtin types ----

func strMethod(s Str, name string) (Value, bool) {
	str := string(s)
	mk := func(n string, fn func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error)) (Value, bool) {
		return &NativeBound{Name: "str." + n, Fn: fn}, true
	}
	switch name {
	case "upper":
		return mk(name, func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
			return Str(strings.ToUpper(str)), nil
		})
	case "lower":
		return mk(name, func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
			return Str(strings.ToLower(str)), nil
		})
	case "strip":
		return mk(name, func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
			if len(args) == 1 {
				cut, ok := args[0].(Str)
				if !ok {
					return nil, Raise("TypeError", "strip arg must be str")
				}
				return Str(strings.Trim(str, string(cut))), nil
			}
			return Str(strings.TrimSpace(str)), nil
		})
	case "lstrip":
		return mk(name, func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
			return Str(strings.TrimLeft(str, " \t\n\r")), nil
		})
	case "rstrip":
		return mk(name, func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
			return Str(strings.TrimRight(str, " \t\n\r")), nil
		})
	case "split":
		return mk(name, func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
			var parts []string
			if len(args) == 0 {
				parts = strings.Fields(str)
			} else {
				sep, ok := args[0].(Str)
				if !ok {
					return nil, Raise("TypeError", "split sep must be str")
				}
				parts = strings.Split(str, string(sep))
			}
			items := make([]Value, len(parts))
			for i, p := range parts {
				items[i] = Str(p)
			}
			return &List{Items: items}, nil
		})
	case "splitlines":
		return mk(name, func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
			lines := strings.Split(strings.ReplaceAll(str, "\r\n", "\n"), "\n")
			if len(lines) > 0 && lines[len(lines)-1] == "" {
				lines = lines[:len(lines)-1]
			}
			items := make([]Value, len(lines))
			for i, l := range lines {
				items[i] = Str(l)
			}
			return &List{Items: items}, nil
		})
	case "join":
		return mk(name, func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
			if err := wantArgs("join", args, 1, 1); err != nil {
				return nil, err
			}
			items, err := ip.iterate(args[0])
			if err != nil {
				return nil, err
			}
			parts := make([]string, len(items))
			for i, it := range items {
				sv, ok := it.(Str)
				if !ok {
					return nil, Raise("TypeError", "sequence item %d: expected str, %s found", i, TypeName(it))
				}
				parts[i] = string(sv)
			}
			return Str(strings.Join(parts, str)), nil
		})
	case "replace":
		return mk(name, func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
			if err := wantArgs("replace", args, 2, 2); err != nil {
				return nil, err
			}
			oldS, ok1 := args[0].(Str)
			newS, ok2 := args[1].(Str)
			if !ok1 || !ok2 {
				return nil, Raise("TypeError", "replace args must be str")
			}
			return Str(strings.ReplaceAll(str, string(oldS), string(newS))), nil
		})
	case "startswith":
		return mk(name, func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
			if err := wantArgs("startswith", args, 1, 1); err != nil {
				return nil, err
			}
			p, ok := args[0].(Str)
			if !ok {
				return nil, Raise("TypeError", "startswith arg must be str")
			}
			return Bool(strings.HasPrefix(str, string(p))), nil
		})
	case "endswith":
		return mk(name, func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
			if err := wantArgs("endswith", args, 1, 1); err != nil {
				return nil, err
			}
			p, ok := args[0].(Str)
			if !ok {
				return nil, Raise("TypeError", "endswith arg must be str")
			}
			return Bool(strings.HasSuffix(str, string(p))), nil
		})
	case "find":
		return mk(name, func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
			if err := wantArgs("find", args, 1, 1); err != nil {
				return nil, err
			}
			p, ok := args[0].(Str)
			if !ok {
				return nil, Raise("TypeError", "find arg must be str")
			}
			return Int(strings.Index(str, string(p))), nil
		})
	case "count":
		return mk(name, func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
			if err := wantArgs("count", args, 1, 1); err != nil {
				return nil, err
			}
			p, ok := args[0].(Str)
			if !ok {
				return nil, Raise("TypeError", "count arg must be str")
			}
			return Int(strings.Count(str, string(p))), nil
		})
	case "format":
		return mk(name, func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
			out := str
			for _, a := range args {
				out = strings.Replace(out, "{}", ToStr(a), 1)
			}
			for k, v := range kwargs {
				out = strings.ReplaceAll(out, "{"+k+"}", ToStr(v))
			}
			return Str(out), nil
		})
	case "isdigit":
		return mk(name, func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
			if str == "" {
				return Bool(false), nil
			}
			for _, r := range str {
				if r < '0' || r > '9' {
					return Bool(false), nil
				}
			}
			return Bool(true), nil
		})
	case "isalpha":
		return mk(name, func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
			if str == "" {
				return Bool(false), nil
			}
			for _, r := range str {
				if !((r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')) {
					return Bool(false), nil
				}
			}
			return Bool(true), nil
		})
	case "title":
		return mk(name, func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
			return Str(strings.Title(strings.ToLower(str))), nil //nolint:staticcheck
		})
	case "capitalize":
		return mk(name, func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
			if str == "" {
				return Str(""), nil
			}
			return Str(strings.ToUpper(str[:1]) + strings.ToLower(str[1:])), nil
		})
	case "zfill":
		return mk(name, func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
			if err := wantArgs("zfill", args, 1, 1); err != nil {
				return nil, err
			}
			w, ok := asInt(args[0])
			if !ok {
				return nil, Raise("TypeError", "zfill width must be int")
			}
			for int64(len(str)) < w {
				str = "0" + str
			}
			return Str(str), nil
		})
	}
	return nil, false
}

func listMethod(l *List, name string) (Value, bool) {
	mk := func(n string, fn func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error)) (Value, bool) {
		return &NativeBound{Name: "list." + n, Fn: fn}, true
	}
	switch name {
	case "append":
		return mk(name, func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
			if err := wantArgs("append", args, 1, 1); err != nil {
				return nil, err
			}
			l.Items = append(l.Items, args[0])
			return None, nil
		})
	case "extend":
		return mk(name, func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
			if err := wantArgs("extend", args, 1, 1); err != nil {
				return nil, err
			}
			items, err := ip.iterate(args[0])
			if err != nil {
				return nil, err
			}
			l.Items = append(l.Items, items...)
			return None, nil
		})
	case "pop":
		return mk(name, func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
			if len(l.Items) == 0 {
				return nil, Raise("IndexError", "pop from empty list")
			}
			idx := len(l.Items) - 1
			if len(args) == 1 {
				i, ok := asInt(args[0])
				if !ok {
					return nil, Raise("TypeError", "pop index must be int")
				}
				idx = int(i)
				if idx < 0 {
					idx += len(l.Items)
				}
				if idx < 0 || idx >= len(l.Items) {
					return nil, Raise("IndexError", "pop index out of range")
				}
			}
			v := l.Items[idx]
			l.Items = append(l.Items[:idx], l.Items[idx+1:]...)
			return v, nil
		})
	case "insert":
		return mk(name, func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
			if err := wantArgs("insert", args, 2, 2); err != nil {
				return nil, err
			}
			i, ok := asInt(args[0])
			if !ok {
				return nil, Raise("TypeError", "insert index must be int")
			}
			idx := clampIndex(int(i), len(l.Items))
			l.Items = append(l.Items[:idx], append([]Value{args[1]}, l.Items[idx:]...)...)
			return None, nil
		})
	case "remove":
		return mk(name, func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
			if err := wantArgs("remove", args, 1, 1); err != nil {
				return nil, err
			}
			for i, it := range l.Items {
				if Equal(it, args[0]) {
					l.Items = append(l.Items[:i], l.Items[i+1:]...)
					return None, nil
				}
			}
			return nil, Raise("ValueError", "list.remove(x): x not in list")
		})
	case "index":
		return mk(name, func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
			if err := wantArgs("index", args, 1, 1); err != nil {
				return nil, err
			}
			for i, it := range l.Items {
				if Equal(it, args[0]) {
					return Int(i), nil
				}
			}
			return nil, Raise("ValueError", "%s is not in list", Repr(args[0]))
		})
	case "count":
		return mk(name, func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
			if err := wantArgs("count", args, 1, 1); err != nil {
				return nil, err
			}
			n := 0
			for _, it := range l.Items {
				if Equal(it, args[0]) {
					n++
				}
			}
			return Int(n), nil
		})
	case "sort":
		return mk(name, func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
			reverse := false
			if r, ok := kwargs["reverse"]; ok {
				reverse = Truthy(r)
			}
			return None, SortValues(ip, l.Items, kwargs["key"], reverse)
		})
	case "reverse":
		return mk(name, func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
			for i, j := 0, len(l.Items)-1; i < j; i, j = i+1, j-1 {
				l.Items[i], l.Items[j] = l.Items[j], l.Items[i]
			}
			return None, nil
		})
	case "clear":
		return mk(name, func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
			l.Items = nil
			return None, nil
		})
	case "copy":
		return mk(name, func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
			return &List{Items: append([]Value(nil), l.Items...)}, nil
		})
	}
	return nil, false
}

func tupleMethod(t *Tuple, name string) (Value, bool) {
	mk := func(n string, fn func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error)) (Value, bool) {
		return &NativeBound{Name: "tuple." + n, Fn: fn}, true
	}
	switch name {
	case "count":
		return mk(name, func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
			n := 0
			for _, it := range t.Items {
				if len(args) == 1 && Equal(it, args[0]) {
					n++
				}
			}
			return Int(n), nil
		})
	case "index":
		return mk(name, func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
			if err := wantArgs("index", args, 1, 1); err != nil {
				return nil, err
			}
			for i, it := range t.Items {
				if Equal(it, args[0]) {
					return Int(i), nil
				}
			}
			return nil, Raise("ValueError", "tuple.index(x): x not in tuple")
		})
	}
	return nil, false
}

func dictMethod(d *Dict, name string) (Value, bool) {
	mk := func(n string, fn func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error)) (Value, bool) {
		return &NativeBound{Name: "dict." + n, Fn: fn}, true
	}
	switch name {
	case "get":
		return mk(name, func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
			if err := wantArgs("get", args, 1, 2); err != nil {
				return nil, err
			}
			v, ok, err := d.Get(args[0])
			if err != nil {
				return nil, Raise("TypeError", "%s", err)
			}
			if !ok {
				if len(args) == 2 {
					return args[1], nil
				}
				return None, nil
			}
			return v, nil
		})
	case "keys":
		return mk(name, func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
			return &List{Items: d.Keys()}, nil
		})
	case "values":
		return mk(name, func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
			return &List{Items: d.Values()}, nil
		})
	case "items":
		return mk(name, func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
			var items []Value
			for _, kv := range d.Items() {
				items = append(items, &Tuple{Items: []Value{kv[0], kv[1]}})
			}
			return &List{Items: items}, nil
		})
	case "pop":
		return mk(name, func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
			if err := wantArgs("pop", args, 1, 2); err != nil {
				return nil, err
			}
			v, ok, err := d.Get(args[0])
			if err != nil {
				return nil, Raise("TypeError", "%s", err)
			}
			if !ok {
				if len(args) == 2 {
					return args[1], nil
				}
				return nil, Raise("KeyError", "%s", Repr(args[0]))
			}
			if _, err := d.Delete(args[0]); err != nil {
				return nil, Raise("TypeError", "%s", err)
			}
			return v, nil
		})
	case "setdefault":
		return mk(name, func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
			if err := wantArgs("setdefault", args, 1, 2); err != nil {
				return nil, err
			}
			v, ok, err := d.Get(args[0])
			if err != nil {
				return nil, Raise("TypeError", "%s", err)
			}
			if ok {
				return v, nil
			}
			var def Value = None
			if len(args) == 2 {
				def = args[1]
			}
			if err := d.Set(args[0], def); err != nil {
				return nil, Raise("TypeError", "%s", err)
			}
			return def, nil
		})
	case "update":
		return mk(name, func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
			if err := wantArgs("update", args, 1, 1); err != nil {
				return nil, err
			}
			src, ok := args[0].(*Dict)
			if !ok {
				return nil, Raise("TypeError", "update() argument must be dict")
			}
			for _, kv := range src.Items() {
				if err := d.Set(kv[0], kv[1]); err != nil {
					return nil, Raise("TypeError", "%s", err)
				}
			}
			return None, nil
		})
	case "clear":
		return mk(name, func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
			d.keys = nil
			d.items = map[string]dictEntry{}
			return None, nil
		})
	case "copy":
		return mk(name, func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
			out := NewDict()
			for _, kv := range d.Items() {
				if err := out.Set(kv[0], kv[1]); err != nil {
					return nil, Raise("TypeError", "%s", err)
				}
			}
			return out, nil
		})
	}
	return nil, false
}

func setMethod(s *Set, name string) (Value, bool) {
	mk := func(n string, fn func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error)) (Value, bool) {
		return &NativeBound{Name: "set." + n, Fn: fn}, true
	}
	switch name {
	case "add":
		return mk(name, func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
			if err := wantArgs("add", args, 1, 1); err != nil {
				return nil, err
			}
			if err := s.Add(args[0]); err != nil {
				return nil, Raise("TypeError", "%s", err)
			}
			return None, nil
		})
	case "discard":
		return mk(name, func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
			if err := wantArgs("discard", args, 1, 1); err != nil {
				return nil, err
			}
			k, err := hashKey(args[0])
			if err != nil {
				return nil, Raise("TypeError", "%s", err)
			}
			if _, ok := s.items[k]; ok {
				delete(s.items, k)
				for i, kk := range s.keys {
					if kk == k {
						s.keys = append(s.keys[:i], s.keys[i+1:]...)
						break
					}
				}
			}
			return None, nil
		})
	}
	return nil, false
}
