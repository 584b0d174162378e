package pycode

import (
	"encoding/json"
	"math"
	"sort"
	"time"
)

// standardModules builds the simulated Python standard library. Modules are
// deliberately small: they cover what streaming PE code in the paper and the
// examples needs (random numbers, math, defaultdict/Counter, time, json).
func standardModules(ip *Interp) map[string]*Module {
	mods := map[string]*Module{}
	mods["random"] = randomModule()
	mods["math"] = mathModule()
	mods["collections"] = collectionsModule()
	mods["time"] = timeModule()
	mods["json"] = jsonModule()
	mods["os"] = osModule()
	mods["sys"] = sysModule()
	mods["statistics"] = statisticsModule()
	mods["string"] = stringModule()
	return mods
}

func randomModule() *Module {
	m := &Module{Name: "random", Attrs: map[string]Value{}}
	m.Attrs["seed"] = nf("seed", func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
		if len(args) >= 1 {
			if n, ok := asInt(args[0]); ok {
				ip.Rand.Seed(n)
				return None, nil
			}
		}
		ip.Rand.Seed(1)
		return None, nil
	})
	m.Attrs["random"] = nf("random", func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
		return Float(ip.Rand.Float64()), nil
	})
	m.Attrs["randint"] = nf("randint", func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
		if err := wantArgs("randint", args, 2, 2); err != nil {
			return nil, err
		}
		a, okA := asInt(args[0])
		b, okB := asInt(args[1])
		if !okA || !okB {
			return nil, Raise("TypeError", "randint() args must be int")
		}
		if b < a {
			return nil, Raise("ValueError", "empty range for randint(%d, %d)", a, b)
		}
		return Int(a + ip.Rand.Int63n(b-a+1)), nil
	})
	m.Attrs["uniform"] = nf("uniform", func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
		if err := wantArgs("uniform", args, 2, 2); err != nil {
			return nil, err
		}
		a, okA := toFloat(args[0])
		b, okB := toFloat(args[1])
		if !okA || !okB {
			return nil, Raise("TypeError", "uniform() args must be numbers")
		}
		return Float(a + ip.Rand.Float64()*(b-a)), nil
	})
	m.Attrs["choice"] = nf("choice", func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
		if err := wantArgs("choice", args, 1, 1); err != nil {
			return nil, err
		}
		n, ok := seqLen(args[0])
		if !ok {
			return nil, Raise("TypeError", "object of type %s has no len()", TypeName(args[0]))
		}
		if n == 0 {
			return nil, Raise("IndexError", "cannot choose from an empty sequence")
		}
		return ip.getIndex(args[0], Int(ip.Rand.Intn(n)))
	})
	m.Attrs["shuffle"] = nf("shuffle", func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
		if err := wantArgs("shuffle", args, 1, 1); err != nil {
			return nil, err
		}
		l, ok := args[0].(*List)
		if !ok {
			return nil, Raise("TypeError", "shuffle() argument must be a list")
		}
		ip.Rand.Shuffle(len(l.Items), func(i, j int) {
			l.Items[i], l.Items[j] = l.Items[j], l.Items[i]
		})
		return None, nil
	})
	m.Attrs["sample"] = nf("sample", func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
		if err := wantArgs("sample", args, 2, 2); err != nil {
			return nil, err
		}
		items, err := ip.iterate(args[0])
		if err != nil {
			return nil, err
		}
		k, ok := asInt(args[1])
		if !ok || k < 0 || int(k) > len(items) {
			return nil, Raise("ValueError", "sample larger than population or negative")
		}
		perm := ip.Rand.Perm(len(items))
		out := make([]Value, k)
		for i := int64(0); i < k; i++ {
			out[i] = items[perm[i]]
		}
		return &List{Items: out}, nil
	})
	m.Attrs["gauss"] = nf("gauss", func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
		if err := wantArgs("gauss", args, 2, 2); err != nil {
			return nil, err
		}
		mu, _ := toFloat(args[0])
		sigma, _ := toFloat(args[1])
		return Float(mu + sigma*ip.Rand.NormFloat64()), nil
	})
	return m
}

func mathModule() *Module {
	m := &Module{Name: "math", Attrs: map[string]Value{}}
	m.Attrs["pi"] = Float(math.Pi)
	m.Attrs["e"] = Float(math.E)
	m.Attrs["inf"] = Float(math.Inf(1))
	m.Attrs["nan"] = Float(math.NaN())
	un := func(name string, fn func(float64) float64) {
		m.Attrs[name] = nf(name, func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
			if err := wantArgs(name, args, 1, 1); err != nil {
				return nil, err
			}
			f, ok := toFloat(args[0])
			if !ok {
				return nil, Raise("TypeError", "must be real number, not %s", TypeName(args[0]))
			}
			r := fn(f)
			if math.IsNaN(r) && !math.IsNaN(f) {
				return nil, Raise("ValueError", "math domain error")
			}
			return Float(r), nil
		})
	}
	un("sqrt", math.Sqrt)
	un("log", math.Log)
	un("log10", math.Log10)
	un("log2", math.Log2)
	un("exp", math.Exp)
	un("sin", math.Sin)
	un("cos", math.Cos)
	un("tan", math.Tan)
	un("asin", math.Asin)
	un("acos", math.Acos)
	un("atan", math.Atan)
	un("fabs", math.Abs)
	m.Attrs["floor"] = nf("floor", func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
		if err := wantArgs("floor", args, 1, 1); err != nil {
			return nil, err
		}
		f, ok := toFloat(args[0])
		if !ok {
			return nil, Raise("TypeError", "must be real number")
		}
		return Int(int64(math.Floor(f))), nil
	})
	m.Attrs["ceil"] = nf("ceil", func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
		if err := wantArgs("ceil", args, 1, 1); err != nil {
			return nil, err
		}
		f, ok := toFloat(args[0])
		if !ok {
			return nil, Raise("TypeError", "must be real number")
		}
		return Int(int64(math.Ceil(f))), nil
	})
	m.Attrs["pow"] = nf("pow", func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
		if err := wantArgs("pow", args, 2, 2); err != nil {
			return nil, err
		}
		a, okA := toFloat(args[0])
		b, okB := toFloat(args[1])
		if !okA || !okB {
			return nil, Raise("TypeError", "must be real numbers")
		}
		return Float(math.Pow(a, b)), nil
	})
	m.Attrs["hypot"] = nf("hypot", func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
		if err := wantArgs("hypot", args, 2, 2); err != nil {
			return nil, err
		}
		a, _ := toFloat(args[0])
		b, _ := toFloat(args[1])
		return Float(math.Hypot(a, b)), nil
	})
	m.Attrs["atan2"] = nf("atan2", func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
		if err := wantArgs("atan2", args, 2, 2); err != nil {
			return nil, err
		}
		a, _ := toFloat(args[0])
		b, _ := toFloat(args[1])
		return Float(math.Atan2(a, b)), nil
	})
	m.Attrs["isnan"] = nf("isnan", func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
		if err := wantArgs("isnan", args, 1, 1); err != nil {
			return nil, err
		}
		f, ok := toFloat(args[0])
		if !ok {
			return nil, Raise("TypeError", "must be real number")
		}
		return Bool(math.IsNaN(f)), nil
	})
	m.Attrs["isinf"] = nf("isinf", func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
		if err := wantArgs("isinf", args, 1, 1); err != nil {
			return nil, err
		}
		f, ok := toFloat(args[0])
		if !ok {
			return nil, Raise("TypeError", "must be real number")
		}
		return Bool(math.IsInf(f, 0)), nil
	})
	return m
}

func collectionsModule() *Module {
	m := &Module{Name: "collections", Attrs: map[string]Value{}}

	// defaultdict: a class whose instances hold a dict plus a factory. We
	// implement it as a native class with __getitem__/__setitem__.
	ddClass := &Class{
		Name:          "defaultdict",
		Methods:       map[string]*Function{},
		Statics:       map[string]Value{},
		NativeMethods: map[string]func(ip *Interp, self *Instance, args []Value, kwargs map[string]Value) (Value, error){},
	}
	ddClass.NativeInit = func(ip *Interp, self *Instance, args []Value) error {
		var factory Value = None
		if len(args) >= 1 {
			factory = args[0]
		}
		self.Attrs["__factory__"] = factory
		self.Attrs["__data__"] = NewDict()
		return nil
	}
	getData := func(self *Instance) (*Dict, error) {
		d, ok := self.Attrs["__data__"].(*Dict)
		if !ok {
			return nil, Raise("TypeError", "defaultdict not initialized (call defaultdict.__init__)")
		}
		return d, nil
	}
	ddClass.NativeMethods["__getitem__"] = func(ip *Interp, self *Instance, args []Value, kwargs map[string]Value) (Value, error) {
		d, err := getData(self)
		if err != nil {
			return nil, err
		}
		v, ok, err := d.Get(args[0])
		if err != nil {
			return nil, Raise("TypeError", "%s", err)
		}
		if ok {
			return v, nil
		}
		factory := self.Attrs["__factory__"]
		if _, isNone := factory.(NoneVal); isNone {
			return nil, Raise("KeyError", "%s", Repr(args[0]))
		}
		def, err := ip.Call(factory)
		if err != nil {
			return nil, err
		}
		if err := d.Set(args[0], def); err != nil {
			return nil, Raise("TypeError", "%s", err)
		}
		return def, nil
	}
	ddClass.NativeMethods["__setitem__"] = func(ip *Interp, self *Instance, args []Value, kwargs map[string]Value) (Value, error) {
		d, err := getData(self)
		if err != nil {
			return nil, err
		}
		if err := d.Set(args[0], args[1]); err != nil {
			return nil, Raise("TypeError", "%s", err)
		}
		return None, nil
	}
	ddClass.NativeMethods["keys"] = func(ip *Interp, self *Instance, args []Value, kwargs map[string]Value) (Value, error) {
		d, err := getData(self)
		if err != nil {
			return nil, err
		}
		return &List{Items: d.Keys()}, nil
	}
	ddClass.NativeMethods["values"] = func(ip *Interp, self *Instance, args []Value, kwargs map[string]Value) (Value, error) {
		d, err := getData(self)
		if err != nil {
			return nil, err
		}
		return &List{Items: d.Values()}, nil
	}
	ddClass.NativeMethods["items"] = func(ip *Interp, self *Instance, args []Value, kwargs map[string]Value) (Value, error) {
		d, err := getData(self)
		if err != nil {
			return nil, err
		}
		var items []Value
		for _, kv := range d.Items() {
			items = append(items, &Tuple{Items: []Value{kv[0], kv[1]}})
		}
		return &List{Items: items}, nil
	}
	ddClass.NativeMethods["get"] = func(ip *Interp, self *Instance, args []Value, kwargs map[string]Value) (Value, error) {
		d, err := getData(self)
		if err != nil {
			return nil, err
		}
		v, ok, err := d.Get(args[0])
		if err != nil {
			return nil, Raise("TypeError", "%s", err)
		}
		if !ok {
			if len(args) >= 2 {
				return args[1], nil
			}
			return None, nil
		}
		return v, nil
	}
	m.Attrs["defaultdict"] = ddClass

	// Counter(iterable) → dict of counts, returned as a plain Dict.
	m.Attrs["Counter"] = nf("Counter", func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
		d := NewDict()
		if len(args) == 1 {
			items, err := ip.iterate(args[0])
			if err != nil {
				return nil, err
			}
			for _, it := range items {
				cur, ok, err := d.Get(it)
				if err != nil {
					return nil, Raise("TypeError", "%s", err)
				}
				if !ok {
					cur = Int(0)
				}
				n, _ := asInt(cur)
				if err := d.Set(it, Int(n+1)); err != nil {
					return nil, Raise("TypeError", "%s", err)
				}
			}
		}
		return d, nil
	})

	m.Attrs["OrderedDict"] = nf("OrderedDict", func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
		d := NewDict()
		if len(args) == 1 {
			if src, ok := args[0].(*Dict); ok {
				for _, kv := range src.Items() {
					if err := d.Set(kv[0], kv[1]); err != nil {
						return nil, Raise("TypeError", "%s", err)
					}
				}
			}
		}
		return d, nil
	})
	return m
}

func timeModule() *Module {
	m := &Module{Name: "time", Attrs: map[string]Value{}}
	m.Attrs["time"] = nf("time", func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
		return Float(float64(time.Now().UnixNano()) / 1e9), nil
	})
	m.Attrs["sleep"] = nf("sleep", func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
		if err := wantArgs("sleep", args, 1, 1); err != nil {
			return nil, err
		}
		f, ok := toFloat(args[0])
		if !ok || f < 0 {
			return nil, Raise("TypeError", "sleep() argument must be a non-negative number")
		}
		// Cap simulated sleep so hostile PE code cannot stall the engine.
		if f > 2 {
			f = 2
		}
		time.Sleep(time.Duration(f * float64(time.Second)))
		return None, nil
	})
	m.Attrs["perf_counter"] = nf("perf_counter", func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
		return Float(float64(time.Now().UnixNano()) / 1e9), nil
	})
	return m
}

func jsonModule() *Module {
	m := &Module{Name: "json", Attrs: map[string]Value{}}
	m.Attrs["dumps"] = nf("dumps", func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
		if err := wantArgs("dumps", args, 1, 1); err != nil {
			return nil, err
		}
		data, err := json.Marshal(GoValue(args[0]))
		if err != nil {
			return nil, Raise("ValueError", "not JSON serializable: %s", err)
		}
		return Str(string(data)), nil
	})
	m.Attrs["loads"] = nf("loads", func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
		if err := wantArgs("loads", args, 1, 1); err != nil {
			return nil, err
		}
		s, ok := args[0].(Str)
		if !ok {
			return nil, Raise("TypeError", "loads() argument must be str")
		}
		var out any
		if err := json.Unmarshal([]byte(s), &out); err != nil {
			return nil, Raise("ValueError", "invalid JSON: %s", err)
		}
		return fromJSON(out), nil
	})
	return m
}

// fromJSON converts decoded JSON into pycode values preserving key order via
// sorted keys (deterministic).
func fromJSON(v any) Value {
	switch x := v.(type) {
	case nil:
		return None
	case bool:
		return Bool(x)
	case float64:
		if x == math.Trunc(x) && math.Abs(x) < 1e15 {
			return Int(int64(x))
		}
		return Float(x)
	case string:
		return Str(x)
	case []any:
		items := make([]Value, len(x))
		for i, it := range x {
			items[i] = fromJSON(it)
		}
		return &List{Items: items}
	case map[string]any:
		d := NewDict()
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			_ = d.Set(Str(k), fromJSON(x[k]))
		}
		return d
	default:
		return None
	}
}

func osModule() *Module {
	m := &Module{Name: "os", Attrs: map[string]Value{}}
	path := &Module{Name: "os.path", Attrs: map[string]Value{}}
	path.Attrs["join"] = nf("join", func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
		parts := make([]string, len(args))
		for i, a := range args {
			s, ok := a.(Str)
			if !ok {
				return nil, Raise("TypeError", "join() args must be str")
			}
			parts[i] = string(s)
		}
		out := ""
		for _, p := range parts {
			if out == "" {
				out = p
			} else {
				out = out + "/" + p
			}
		}
		return Str(out), nil
	})
	path.Attrs["basename"] = nf("basename", func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
		if err := wantArgs("basename", args, 1, 1); err != nil {
			return nil, err
		}
		s, ok := args[0].(Str)
		if !ok {
			return nil, Raise("TypeError", "basename() arg must be str")
		}
		str := string(s)
		for i := len(str) - 1; i >= 0; i-- {
			if str[i] == '/' {
				return Str(str[i+1:]), nil
			}
		}
		return s, nil
	})
	m.Attrs["path"] = path
	m.Attrs["getpid"] = nf("getpid", func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
		return Int(1), nil // the execution environment is sandboxed
	})
	m.Attrs["environ"] = NewDict()
	return m
}

func sysModule() *Module {
	m := &Module{Name: "sys", Attrs: map[string]Value{}}
	m.Attrs["version"] = Str("pycode 1.0 (laminar-go reproduction)")
	m.Attrs["maxsize"] = Int(math.MaxInt64)
	return m
}

func statisticsModule() *Module {
	m := &Module{Name: "statistics", Attrs: map[string]Value{}}
	collect := func(ip *Interp, args []Value) ([]float64, error) {
		if err := wantArgs("statistics", args, 1, 1); err != nil {
			return nil, err
		}
		items, err := ip.iterate(args[0])
		if err != nil {
			return nil, err
		}
		if len(items) == 0 {
			return nil, Raise("StatisticsError", "no data points")
		}
		out := make([]float64, len(items))
		for i, it := range items {
			f, ok := toFloat(it)
			if !ok {
				return nil, Raise("TypeError", "data must be numeric")
			}
			out[i] = f
		}
		return out, nil
	}
	m.Attrs["mean"] = nf("mean", func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
		fs, err := collect(ip, args)
		if err != nil {
			return nil, err
		}
		sum := 0.0
		for _, f := range fs {
			sum += f
		}
		return Float(sum / float64(len(fs))), nil
	})
	m.Attrs["median"] = nf("median", func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
		fs, err := collect(ip, args)
		if err != nil {
			return nil, err
		}
		sort.Float64s(fs)
		n := len(fs)
		if n%2 == 1 {
			return Float(fs[n/2]), nil
		}
		return Float((fs[n/2-1] + fs[n/2]) / 2), nil
	})
	m.Attrs["stdev"] = nf("stdev", func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
		fs, err := collect(ip, args)
		if err != nil {
			return nil, err
		}
		if len(fs) < 2 {
			return nil, Raise("StatisticsError", "stdev requires at least two data points")
		}
		mean := 0.0
		for _, f := range fs {
			mean += f
		}
		mean /= float64(len(fs))
		ss := 0.0
		for _, f := range fs {
			ss += (f - mean) * (f - mean)
		}
		return Float(math.Sqrt(ss / float64(len(fs)-1))), nil
	})
	return m
}

func stringModule() *Module {
	m := &Module{Name: "string", Attrs: map[string]Value{}}
	m.Attrs["ascii_lowercase"] = Str("abcdefghijklmnopqrstuvwxyz")
	m.Attrs["ascii_uppercase"] = Str("ABCDEFGHIJKLMNOPQRSTUVWXYZ")
	m.Attrs["digits"] = Str("0123456789")
	m.Attrs["punctuation"] = Str("!\"#$%&'()*+,-./:;<=>?@[\\]^_`{|}~")
	return m
}
