package pycode

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"strings"
)

// Options configures an interpreter instance.
type Options struct {
	// Stdout receives print() output. Defaults to os.Stdout.
	Stdout io.Writer
	// ResourceDir restricts open() to files under this directory. Empty
	// disables file access.
	ResourceDir string
	// MaxSteps bounds evaluated statements+expressions to guard against
	// runaway PE code. 0 means the default of 50 million.
	MaxSteps int64
	// Seed seeds the `random` module deterministically. 0 uses 1.
	Seed int64
	// Modules are additional native modules importable by code (name → module).
	Modules map[string]*Module
	// HTTPGet, when set, backs network-touching simulated modules (the VO
	// client). It receives a URL and returns the body.
	HTTPGet func(url string) (string, error)
}

// RuntimeErr is a pycode runtime error (a Python exception).
type RuntimeErr struct {
	Type string // e.g. "ValueError", "TypeError"
	Msg  string
	Line int
	Val  Value // payload for raised user exceptions
}

func (e *RuntimeErr) Error() string {
	if e.Line > 0 {
		return fmt.Sprintf("pycode: %s: %s (line %d)", e.Type, e.Msg, e.Line)
	}
	return fmt.Sprintf("pycode: %s: %s", e.Type, e.Msg)
}

// Raise builds a RuntimeErr.
func Raise(typ, format string, args ...any) *RuntimeErr {
	return &RuntimeErr{Type: typ, Msg: fmt.Sprintf(format, args...)}
}

// control-flow signals travel as errors.
type breakSignal struct{}
type continueSignal struct{}
type returnSignal struct{ val Value }

func (breakSignal) Error() string    { return "break outside loop" }
func (continueSignal) Error() string { return "continue outside loop" }
func (returnSignal) Error() string   { return "return outside function" }

// Interp is a pycode interpreter. It is not safe for concurrent use; the
// dataflow engine creates one per PE instance.
type Interp struct {
	Globals  *Env
	opts     Options
	steps    int64
	maxSteps int64
	Rand     *rand.Rand
	modules  map[string]*Module
	builtins map[string]Value
}

// New creates an interpreter with the standard builtins and simulated stdlib.
func New(opts Options) *Interp {
	if opts.Stdout == nil {
		opts.Stdout = os.Stdout
	}
	max := opts.MaxSteps
	if max == 0 {
		max = 50_000_000
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	ip := &Interp{
		Globals:  NewEnv(),
		opts:     opts,
		maxSteps: max,
		Rand:     rand.New(rand.NewSource(seed)),
	}
	ip.builtins = builtinTable(ip)
	ip.modules = standardModules(ip)
	for name, m := range opts.Modules {
		ip.modules[name] = m
	}
	return ip
}

// Stdout returns the configured output writer.
func (ip *Interp) Stdout() io.Writer { return ip.opts.Stdout }

// SetStdout swaps the output writer (used per execution request).
func (ip *Interp) SetStdout(w io.Writer) { ip.opts.Stdout = w }

// RegisterModule makes a native module importable.
func (ip *Interp) RegisterModule(m *Module) { ip.modules[m.Name] = m }

// DefineGlobal injects a value into the module scope (used by the dataflow
// engine to expose PE base classes).
func (ip *Interp) DefineGlobal(name string, v Value) { ip.Globals.SetLocal(name, v) }

// Exec parses and executes source in the module scope.
func (ip *Interp) Exec(src string) error {
	mod, err := Parse(src)
	if err != nil {
		return err
	}
	return ip.ExecModule(mod)
}

// ExecModule executes a parsed module in the module scope.
func (ip *Interp) ExecModule(mod *Program) error {
	for _, st := range mod.Body {
		if err := ip.execStmt(st, ip.Globals); err != nil {
			return err
		}
	}
	return nil
}

// Global fetches a module-scope binding.
func (ip *Interp) Global(name string) (Value, bool) { return ip.Globals.Get(name) }

func (ip *Interp) step(n Node) error {
	ip.steps++
	if ip.steps > ip.maxSteps {
		line := 0
		if n != nil {
			line, _ = n.Pos()
		}
		return &RuntimeErr{Type: "TimeoutError", Msg: "execution step limit exceeded", Line: line}
	}
	return nil
}

func withLine(err error, n Node) error {
	if re, ok := err.(*RuntimeErr); ok && re.Line == 0 && n != nil {
		re.Line, _ = n.Pos()
	}
	return err
}

// ---- statement execution ----

func (ip *Interp) execBlock(body []Stmt, env *Env) error {
	for _, st := range body {
		if err := ip.execStmt(st, env); err != nil {
			return err
		}
	}
	return nil
}

func (ip *Interp) execStmt(st Stmt, env *Env) error {
	if err := ip.step(st); err != nil {
		return err
	}
	switch s := st.(type) {
	case *ExprStmt:
		_, err := ip.eval(s.X, env)
		return err
	case *AssignStmt:
		v, err := ip.eval(s.Value, env)
		if err != nil {
			return err
		}
		for _, t := range s.Targets {
			if err := ip.assign(t, v, env); err != nil {
				return withLine(err, s)
			}
		}
		return nil
	case *AugAssignStmt:
		cur, err := ip.eval(s.Target, env)
		if err != nil {
			return err
		}
		rhs, err := ip.eval(s.Value, env)
		if err != nil {
			return err
		}
		nv, err := ip.binaryOp(s.Op, cur, rhs)
		if err != nil {
			return withLine(err, s)
		}
		return withLine(ip.assign(s.Target, nv, env), s)
	case *IfStmt:
		cond, err := ip.eval(s.Cond, env)
		if err != nil {
			return err
		}
		if Truthy(cond) {
			return ip.execBlock(s.Body, env)
		}
		if s.Else != nil {
			return ip.execBlock(s.Else, env)
		}
		return nil
	case *WhileStmt:
		for {
			cond, err := ip.eval(s.Cond, env)
			if err != nil {
				return err
			}
			if !Truthy(cond) {
				break
			}
			err = ip.execBlock(s.Body, env)
			if err != nil {
				if _, ok := err.(breakSignal); ok {
					return nil
				}
				if _, ok := err.(continueSignal); ok {
					continue
				}
				return err
			}
		}
		if s.Else != nil {
			return ip.execBlock(s.Else, env)
		}
		return nil
	case *ForStmt:
		iter, err := ip.eval(s.Iter, env)
		if err != nil {
			return err
		}
		items, err := ip.iter(iter)
		if err != nil {
			return withLine(err, s)
		}
		for {
			item, ok, err := items.Next()
			if err != nil {
				return withLine(err, s)
			}
			if !ok {
				break
			}
			if err := ip.step(s); err != nil {
				return err
			}
			if err := ip.assign(s.Target, item, env); err != nil {
				return withLine(err, s)
			}
			if err := ip.execBlock(s.Body, env); err != nil {
				if _, ok := err.(breakSignal); ok {
					return nil
				}
				if _, ok := err.(continueSignal); ok {
					continue
				}
				return err
			}
		}
		if s.Else != nil {
			return ip.execBlock(s.Else, env)
		}
		return nil
	case *DefStmt:
		fn := &Function{Name: s.Name, Params: s.Params, Body: s.Body, Closure: env, Doc: s.Doc}
		env.Set(s.Name, fn)
		return nil
	case *ClassStmt:
		return ip.execClass(s, env)
	case *ReturnStmt:
		var v Value = None
		if s.Value != nil {
			ev, err := ip.eval(s.Value, env)
			if err != nil {
				return err
			}
			v = ev
		}
		return returnSignal{val: v}
	case *PassStmt:
		return nil
	case *BreakStmt:
		return breakSignal{}
	case *ContinueStmt:
		return continueSignal{}
	case *ImportStmt:
		for _, n := range s.Names {
			mod, err := ip.importModule(n.Module)
			if err != nil {
				return withLine(err, s)
			}
			name := n.Alias
			if name == "" {
				// `import a.b` binds `a`; our flat module space binds the
				// first component to the resolved module.
				name = strings.Split(n.Module, ".")[0]
			}
			env.Set(name, mod)
		}
		return nil
	case *FromImportStmt:
		mod, err := ip.importModule(s.Module)
		if err != nil {
			return withLine(err, s)
		}
		for _, n := range s.Names {
			if n.Module == "*" {
				for k, v := range mod.Attrs {
					env.Set(k, v)
				}
				continue
			}
			v, ok := mod.Attrs[n.Module]
			if !ok {
				return withLine(Raise("ImportError", "cannot import name %q from %q", n.Module, s.Module), s)
			}
			name := n.Alias
			if name == "" {
				name = n.Module
			}
			env.Set(name, v)
		}
		return nil
	case *GlobalStmt:
		for _, n := range s.Names {
			env.DeclareGlobal(n)
		}
		return nil
	case *DelStmt:
		for _, t := range s.Targets {
			if err := ip.deleteTarget(t, env); err != nil {
				return withLine(err, s)
			}
		}
		return nil
	case *RaiseStmt:
		if s.Value == nil {
			return withLine(Raise("RuntimeError", "no active exception to re-raise"), s)
		}
		v, err := ip.eval(s.Value, env)
		if err != nil {
			return err
		}
		re := &RuntimeErr{Type: "Exception", Msg: ToStr(v), Val: v}
		if inst, ok := v.(*Instance); ok {
			re.Type = inst.Class.Name
		}
		if cls, ok := v.(*Class); ok {
			re.Type = cls.Name
			re.Msg = ""
		}
		re.Line, _ = s.Pos()
		return re
	case *TryStmt:
		err := ip.execBlock(s.Body, env)
		if err != nil {
			re, isRE := err.(*RuntimeErr)
			if isRE {
				for _, h := range s.Handlers {
					if h.TypeName == "" || h.TypeName == re.Type ||
						h.TypeName == "Exception" || h.TypeName == "BaseException" {
						if h.AsName != "" {
							payload := re.Val
							if payload == nil {
								payload = Str(re.Msg)
							}
							env.Set(h.AsName, payload)
						}
						err = ip.execBlock(h.Body, env)
						break
					}
				}
			}
		}
		if s.Finally != nil {
			if ferr := ip.execBlock(s.Finally, env); ferr != nil {
				return ferr
			}
		}
		return err
	default:
		return Raise("SystemError", "unknown statement %T", st)
	}
}

func (ip *Interp) execClass(s *ClassStmt, env *Env) error {
	cls := &Class{Name: s.Name, Methods: map[string]*Function{}, Statics: map[string]Value{}, Doc: s.Doc}
	if s.Base != nil {
		bv, err := ip.eval(s.Base, env)
		if err != nil {
			return err
		}
		bc, ok := bv.(*Class)
		if !ok {
			return withLine(Raise("TypeError", "class base must be a class, got %s", TypeName(bv)), s)
		}
		cls.Base = bc
	}
	// Execute class body in a fresh scope; defs become methods, assignments
	// become class attributes.
	clsEnv := env.Child()
	for _, st := range s.Body {
		switch b := st.(type) {
		case *DefStmt:
			cls.Methods[b.Name] = &Function{Name: b.Name, Params: b.Params, Body: b.Body, Closure: env, Doc: b.Doc}
		default:
			if err := ip.execStmt(st, clsEnv); err != nil {
				return err
			}
		}
	}
	for _, name := range clsEnv.Names() {
		v, _ := clsEnv.Get(name)
		cls.Statics[name] = v
	}
	env.Set(s.Name, cls)
	return nil
}

func (ip *Interp) assign(target Expr, v Value, env *Env) error {
	switch t := target.(type) {
	case *NameExpr:
		env.Set(t.Name, v)
		return nil
	case *AttrExpr:
		obj, err := ip.eval(t.X, env)
		if err != nil {
			return err
		}
		return ip.setAttr(obj, t.Name, v)
	case *IndexExpr:
		obj, err := ip.eval(t.X, env)
		if err != nil {
			return err
		}
		key, err := ip.eval(t.Key, env)
		if err != nil {
			return err
		}
		return ip.setIndex(obj, key, v)
	case *TupleExpr:
		return ip.destructure(t.Items, v, env)
	case *ListExpr:
		return ip.destructure(t.Items, v, env)
	default:
		return Raise("SyntaxError", "cannot assign to %T", target)
	}
}

func (ip *Interp) destructure(targets []Expr, v Value, env *Env) error {
	// A tuple cannot change while its items are assigned, so it is
	// unpacked in place; anything else is drained into a copy first.
	var items []Value
	var err error
	if t, ok := v.(*Tuple); ok {
		items = t.Items
	} else if items, err = ip.iterate(v); err != nil {
		return err
	}
	if len(items) != len(targets) {
		return Raise("ValueError", "cannot unpack %d values into %d targets", len(items), len(targets))
	}
	for i, t := range targets {
		if err := ip.assign(t, items[i], env); err != nil {
			return err
		}
	}
	return nil
}

func (ip *Interp) deleteTarget(t Expr, env *Env) error {
	switch x := t.(type) {
	case *NameExpr:
		if !env.Delete(x.Name) {
			return Raise("NameError", "name %q is not defined", x.Name)
		}
		return nil
	case *IndexExpr:
		obj, err := ip.eval(x.X, env)
		if err != nil {
			return err
		}
		key, err := ip.eval(x.Key, env)
		if err != nil {
			return err
		}
		switch o := obj.(type) {
		case *Dict:
			ok, err := o.Delete(key)
			if err != nil {
				return err
			}
			if !ok {
				return Raise("KeyError", "%s", Repr(key))
			}
			return nil
		case *List:
			i, ok := key.(Int)
			if !ok {
				return Raise("TypeError", "list indices must be integers")
			}
			idx := int(i)
			if idx < 0 {
				idx += len(o.Items)
			}
			if idx < 0 || idx >= len(o.Items) {
				return Raise("IndexError", "list index out of range")
			}
			o.Items = append(o.Items[:idx], o.Items[idx+1:]...)
			return nil
		}
		return Raise("TypeError", "cannot delete item of %s", TypeName(obj))
	case *AttrExpr:
		obj, err := ip.eval(x.X, env)
		if err != nil {
			return err
		}
		if inst, ok := obj.(*Instance); ok {
			delete(inst.Attrs, x.Name)
			return nil
		}
		return Raise("TypeError", "cannot delete attribute of %s", TypeName(obj))
	default:
		return Raise("SyntaxError", "cannot delete %T", t)
	}
}

// ---- expression evaluation ----

func (ip *Interp) eval(e Expr, env *Env) (Value, error) {
	if err := ip.step(e); err != nil {
		return nil, err
	}
	switch x := e.(type) {
	case *NameExpr:
		if v, ok := env.Get(x.Name); ok {
			return v, nil
		}
		if v, ok := ip.builtins[x.Name]; ok {
			return v, nil
		}
		return nil, withLine(Raise("NameError", "name %q is not defined", x.Name), e)
	case *NumberExpr:
		if x.IsFloat {
			return Float(x.Float), nil
		}
		return Int(x.Int), nil
	case *StringExpr:
		return Str(x.Value), nil
	case *BoolExpr:
		return Bool(x.Value), nil
	case *NoneExpr:
		return None, nil
	case *ListExpr:
		items := make([]Value, len(x.Items))
		for i, it := range x.Items {
			v, err := ip.eval(it, env)
			if err != nil {
				return nil, err
			}
			items[i] = v
		}
		return &List{Items: items}, nil
	case *TupleExpr:
		items := make([]Value, len(x.Items))
		for i, it := range x.Items {
			v, err := ip.eval(it, env)
			if err != nil {
				return nil, err
			}
			items[i] = v
		}
		return &Tuple{Items: items}, nil
	case *DictExpr:
		d := NewDict()
		for i := range x.Keys {
			k, err := ip.eval(x.Keys[i], env)
			if err != nil {
				return nil, err
			}
			v, err := ip.eval(x.Values[i], env)
			if err != nil {
				return nil, err
			}
			if err := d.Set(k, v); err != nil {
				return nil, withLine(Raise("TypeError", "%s", err), e)
			}
		}
		return d, nil
	case *SetExpr:
		s := NewSet()
		for _, it := range x.Items {
			v, err := ip.eval(it, env)
			if err != nil {
				return nil, err
			}
			if err := s.Add(v); err != nil {
				return nil, withLine(Raise("TypeError", "%s", err), e)
			}
		}
		return s, nil
	case *UnaryExpr:
		v, err := ip.eval(x.X, env)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case "not":
			return Bool(!Truthy(v)), nil
		case "-":
			switch n := v.(type) {
			case Int:
				return Int(-n), nil
			case Float:
				return Float(-n), nil
			case Bool:
				if n {
					return Int(-1), nil
				}
				return Int(0), nil
			}
			return nil, withLine(Raise("TypeError", "bad operand type for unary -: %s", TypeName(v)), e)
		case "+":
			switch v.(type) {
			case Int, Float:
				return v, nil
			}
			return nil, withLine(Raise("TypeError", "bad operand type for unary +: %s", TypeName(v)), e)
		}
		return nil, withLine(Raise("SystemError", "unknown unary op %q", x.Op), e)
	case *BinaryExpr:
		l, err := ip.eval(x.L, env)
		if err != nil {
			return nil, err
		}
		r, err := ip.eval(x.R, env)
		if err != nil {
			return nil, err
		}
		v, err := ip.binaryOp(x.Op, l, r)
		return v, withLine(err, e)
	case *BoolOpExpr:
		var last Value = None
		for i, sub := range x.Exprs {
			v, err := ip.eval(sub, env)
			if err != nil {
				return nil, err
			}
			last = v
			if x.Op == "and" && !Truthy(v) {
				return v, nil
			}
			if x.Op == "or" && Truthy(v) {
				return v, nil
			}
			_ = i
		}
		return last, nil
	case *CompareExpr:
		left, err := ip.eval(x.First, env)
		if err != nil {
			return nil, err
		}
		for i, op := range x.Ops {
			right, err := ip.eval(x.Rest[i], env)
			if err != nil {
				return nil, err
			}
			ok, err := ip.compareOp(op, left, right)
			if err != nil {
				return nil, withLine(err, e)
			}
			if !ok {
				return Bool(false), nil
			}
			left = right
		}
		return Bool(true), nil
	case *CondExpr:
		c, err := ip.eval(x.Cond, env)
		if err != nil {
			return nil, err
		}
		if Truthy(c) {
			return ip.eval(x.Then, env)
		}
		return ip.eval(x.Else, env)
	case *CallExpr:
		return ip.evalCall(x, env)
	case *AttrExpr:
		obj, err := ip.eval(x.X, env)
		if err != nil {
			return nil, err
		}
		v, err := ip.getAttr(obj, x.Name)
		return v, withLine(err, e)
	case *IndexExpr:
		obj, err := ip.eval(x.X, env)
		if err != nil {
			return nil, err
		}
		key, err := ip.eval(x.Key, env)
		if err != nil {
			return nil, err
		}
		v, err := ip.getIndex(obj, key)
		return v, withLine(err, e)
	case *SliceExpr:
		obj, err := ip.eval(x.X, env)
		if err != nil {
			return nil, err
		}
		var lo, hi Value = None, None
		if x.Lo != nil {
			lo, err = ip.eval(x.Lo, env)
			if err != nil {
				return nil, err
			}
		}
		if x.Hi != nil {
			hi, err = ip.eval(x.Hi, env)
			if err != nil {
				return nil, err
			}
		}
		v, err := ip.getSlice(obj, lo, hi)
		return v, withLine(err, e)
	case *LambdaExpr:
		return &Function{Name: "<lambda>", Params: x.Params, Body: []Stmt{
			&ReturnStmt{position: position{x.Line, x.Col}, Value: x.Body},
		}, Closure: env}, nil
	case *CompExpr:
		return ip.evalComp(x, env)
	default:
		return nil, withLine(Raise("SystemError", "unknown expression %T", e), e)
	}
}

// evalComp evaluates a comprehension. The outermost iterable is evaluated
// now, in the enclosing scope, as CPython does; a generator expression
// returns a lazy *Generator over it, the others drain it.
func (ip *Interp) evalComp(x *CompExpr, env *Env) (Value, error) {
	iter, err := ip.eval(x.Iter, env)
	if err != nil {
		return nil, err
	}
	items, err := ip.iter(iter)
	if err != nil {
		return nil, withLine(err, x)
	}
	scope := env.Child()
	// next yields the element (and, for a dict comprehension, the value)
	// of the next item that passes the condition.
	next := func() (elt, val Value, ok bool, err error) {
		for {
			item, ok, err := items.Next()
			if !ok || err != nil {
				return nil, nil, false, err
			}
			if err := ip.step(x); err != nil {
				return nil, nil, false, err
			}
			if err := ip.assign(x.Target, item, scope); err != nil {
				return nil, nil, false, err
			}
			if x.Cond != nil {
				c, err := ip.eval(x.Cond, scope)
				if err != nil {
					return nil, nil, false, err
				}
				if !Truthy(c) {
					continue
				}
			}
			if elt, err = ip.eval(x.Elt, scope); err != nil {
				return nil, nil, false, err
			}
			if x.IsDict {
				if val, err = ip.eval(x.Val, scope); err != nil {
					return nil, nil, false, err
				}
			}
			return elt, val, true, nil
		}
	}
	switch {
	case x.IsGen:
		return &Generator{Name: "generator", next: func() (Value, bool, error) {
			elt, _, ok, err := next()
			return elt, ok, err
		}}, nil
	case x.IsDict:
		d := NewDict()
		for {
			k, v, ok, err := next()
			if !ok || err != nil {
				return d, err
			}
			if err := d.Set(k, v); err != nil {
				return nil, withLine(Raise("TypeError", "%s", err), x)
			}
		}
	case x.IsSet:
		s := NewSet()
		for {
			v, _, ok, err := next()
			if !ok || err != nil {
				return s, err
			}
			if err := s.Add(v); err != nil {
				return nil, withLine(Raise("TypeError", "%s", err), x)
			}
		}
	}
	var out []Value
	for {
		v, _, ok, err := next()
		if !ok || err != nil {
			return &List{Items: out}, err
		}
		out = append(out, v)
	}
}

func (ip *Interp) evalCall(x *CallExpr, env *Env) (Value, error) {
	fn, err := ip.eval(x.Fn, env)
	if err != nil {
		return nil, err
	}
	args := make([]Value, len(x.Args))
	for i, a := range x.Args {
		v, err := ip.eval(a, env)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	var kwargs map[string]Value
	if len(x.KwNames) > 0 {
		kwargs = make(map[string]Value, len(x.KwNames))
		for i, name := range x.KwNames {
			v, err := ip.eval(x.KwValues[i], env)
			if err != nil {
				return nil, err
			}
			kwargs[name] = v
		}
	}
	v, err := ip.CallKw(fn, args, kwargs)
	return v, withLine(err, x)
}

// Call invokes any callable with positional arguments.
func (ip *Interp) Call(fn Value, args ...Value) (Value, error) {
	return ip.CallKw(fn, args, nil)
}

// CallKw invokes any callable with positional and keyword arguments.
func (ip *Interp) CallKw(fn Value, args []Value, kwargs map[string]Value) (Value, error) {
	switch f := fn.(type) {
	case *Function:
		return ip.callFunction(f, nil, args, kwargs)
	case *BoundMethod:
		return ip.callFunction(f.Fn, f.Self, args, kwargs)
	case *NativeFunc:
		return f.Fn(ip, args, kwargs)
	case *NativeBound:
		return f.Fn(ip, args, kwargs)
	case *Class:
		return ip.Instantiate(f, args, kwargs)
	default:
		return nil, Raise("TypeError", "%s object is not callable", TypeName(fn))
	}
}

func (ip *Interp) callFunction(fn *Function, self Value, args []Value, kwargs map[string]Value) (Value, error) {
	scope := fn.Closure.Child()
	params := fn.Params
	if self != nil {
		if len(params) == 0 {
			return nil, Raise("TypeError", "%s() missing 'self' parameter", fn.Name)
		}
		scope.SetLocal(params[0].Name, self)
		params = params[1:]
	}
	if len(args) > len(params) {
		return nil, Raise("TypeError", "%s() takes %d arguments but %d were given", fn.Name, len(params), len(args))
	}
	used := map[string]bool{}
	for i, p := range params {
		if i < len(args) {
			scope.SetLocal(p.Name, args[i])
			used[p.Name] = true
			continue
		}
		if kwargs != nil {
			if v, ok := kwargs[p.Name]; ok {
				scope.SetLocal(p.Name, v)
				used[p.Name] = true
				continue
			}
		}
		if p.Default != nil {
			dv, err := ip.eval(p.Default, fn.Closure)
			if err != nil {
				return nil, err
			}
			scope.SetLocal(p.Name, dv)
			continue
		}
		return nil, Raise("TypeError", "%s() missing required argument: %q", fn.Name, p.Name)
	}
	for k := range kwargs {
		if !used[k] {
			found := false
			for _, p := range params {
				if p.Name == k {
					found = true
					break
				}
			}
			if !found {
				return nil, Raise("TypeError", "%s() got an unexpected keyword argument %q", fn.Name, k)
			}
		}
	}
	err := ip.execBlock(fn.Body, scope)
	if err != nil {
		if rs, ok := err.(returnSignal); ok {
			return rs.val, nil
		}
		return nil, err
	}
	return None, nil
}

// Instantiate constructs an instance of cls, running native init (base
// framework classes) then user __init__ if defined.
func (ip *Interp) Instantiate(cls *Class, args []Value, kwargs map[string]Value) (Value, error) {
	inst := NewInstance(cls)
	// Run the closest NativeInit up the chain when the user class does not
	// define __init__ itself; if it does, the user __init__ is expected to
	// call Base.__init__(self) which triggers the native init.
	if init, ok := cls.lookupMethod("__init__"); ok {
		if _, err := ip.callFunction(init, inst, args, kwargs); err != nil {
			return nil, err
		}
		return inst, nil
	}
	if ni := findNativeInit(cls); ni != nil {
		if err := ni(ip, inst, args); err != nil {
			return nil, err
		}
	}
	return inst, nil
}

func findNativeInit(c *Class) func(ip *Interp, self *Instance, args []Value) error {
	for k := c; k != nil; k = k.Base {
		if k.NativeInit != nil {
			return k.NativeInit
		}
	}
	return nil
}

// HasAttr reports whether an attribute/method resolves on the value.
func (ip *Interp) HasAttr(obj Value, name string) bool {
	_, err := ip.getAttr(obj, name)
	return err == nil
}

// CallMethod invokes a method by name on an instance-like value.
func (ip *Interp) CallMethod(obj Value, name string, args ...Value) (Value, error) {
	m, err := ip.getAttr(obj, name)
	if err != nil {
		return nil, err
	}
	return ip.Call(m, args...)
}

// ---- operators ----

func (ip *Interp) binaryOp(op string, l, r Value) (Value, error) {
	switch op {
	case "+":
		switch a := l.(type) {
		case Str:
			if b, ok := r.(Str); ok {
				return a + b, nil
			}
			return nil, Raise("TypeError", "can only concatenate str to str, not %s", TypeName(r))
		case *List:
			if b, ok := r.(*List); ok {
				items := make([]Value, 0, len(a.Items)+len(b.Items))
				items = append(items, a.Items...)
				items = append(items, b.Items...)
				return &List{Items: items}, nil
			}
			return nil, Raise("TypeError", "can only concatenate list to list, not %s", TypeName(r))
		case *Tuple:
			if b, ok := r.(*Tuple); ok {
				items := make([]Value, 0, len(a.Items)+len(b.Items))
				items = append(items, a.Items...)
				items = append(items, b.Items...)
				return &Tuple{Items: items}, nil
			}
		}
		return numericOp(op, l, r)
	case "-", "/", "//":
		return numericOp(op, l, r)
	case "*":
		// sequence repetition
		if s, ok := l.(Str); ok {
			if n, ok := r.(Int); ok {
				return Str(strings.Repeat(string(s), max(0, int(n)))), nil
			}
		}
		if n, ok := l.(Int); ok {
			if s, ok := r.(Str); ok {
				return Str(strings.Repeat(string(s), max(0, int(n)))), nil
			}
		}
		if lst, ok := l.(*List); ok {
			if n, ok := r.(Int); ok {
				return repeatList(lst, int(n)), nil
			}
		}
		if n, ok := l.(Int); ok {
			if lst, ok := r.(*List); ok {
				return repeatList(lst, int(n)), nil
			}
		}
		return numericOp(op, l, r)
	case "%":
		if s, ok := l.(Str); ok {
			return formatPercent(string(s), r)
		}
		return numericOp(op, l, r)
	case "**":
		return numericOp(op, l, r)
	default:
		return nil, Raise("SystemError", "unknown binary op %q", op)
	}
}

func repeatList(lst *List, n int) *List {
	if n < 0 {
		n = 0
	}
	items := make([]Value, 0, len(lst.Items)*n)
	for i := 0; i < n; i++ {
		items = append(items, lst.Items...)
	}
	return &List{Items: items}
}

func numericOp(op string, l, r Value) (Value, error) {
	li, lIsInt := asInt(l)
	ri, rIsInt := asInt(r)
	if lIsInt && rIsInt {
		switch op {
		case "+":
			return Int(li + ri), nil
		case "-":
			return Int(li - ri), nil
		case "*":
			return Int(li * ri), nil
		case "/":
			if ri == 0 {
				return nil, Raise("ZeroDivisionError", "division by zero")
			}
			return Float(float64(li) / float64(ri)), nil
		case "//":
			if ri == 0 {
				return nil, Raise("ZeroDivisionError", "integer division or modulo by zero")
			}
			return Int(floorDivInt(li, ri)), nil
		case "%":
			if ri == 0 {
				return nil, Raise("ZeroDivisionError", "integer division or modulo by zero")
			}
			return Int(pyModInt(li, ri)), nil
		case "**":
			if ri >= 0 {
				return Int(ipowInt(li, ri)), nil
			}
			return Float(math.Pow(float64(li), float64(ri))), nil
		}
	}
	lf, okL := toFloat(l)
	rf, okR := toFloat(r)
	if !okL || !okR {
		return nil, Raise("TypeError", "unsupported operand type(s) for %s: %q and %q", op, TypeName(l), TypeName(r))
	}
	switch op {
	case "+":
		return Float(lf + rf), nil
	case "-":
		return Float(lf - rf), nil
	case "*":
		return Float(lf * rf), nil
	case "/":
		if rf == 0 {
			return nil, Raise("ZeroDivisionError", "float division by zero")
		}
		return Float(lf / rf), nil
	case "//":
		if rf == 0 {
			return nil, Raise("ZeroDivisionError", "float floor division by zero")
		}
		return Float(math.Floor(lf / rf)), nil
	case "%":
		if rf == 0 {
			return nil, Raise("ZeroDivisionError", "float modulo")
		}
		m := math.Mod(lf, rf)
		if m != 0 && (m < 0) != (rf < 0) {
			m += rf
		}
		return Float(m), nil
	case "**":
		return Float(math.Pow(lf, rf)), nil
	}
	return nil, Raise("SystemError", "unknown numeric op %q", op)
}

func asInt(v Value) (int64, bool) {
	switch x := v.(type) {
	case Int:
		return int64(x), true
	case Bool:
		if x {
			return 1, true
		}
		return 0, true
	default:
		return 0, false
	}
}

func floorDivInt(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}

func pyModInt(a, b int64) int64 {
	m := a % b
	if m != 0 && (m < 0) != (b < 0) {
		m += b
	}
	return m
}

func ipowInt(base, exp int64) int64 {
	result := int64(1)
	for exp > 0 {
		if exp&1 == 1 {
			result *= base
		}
		base *= base
		exp >>= 1
	}
	return result
}

func (ip *Interp) compareOp(op string, l, r Value) (bool, error) {
	switch op {
	case "==":
		return Equal(l, r), nil
	case "!=":
		return !Equal(l, r), nil
	case "<", ">", "<=", ">=":
		c, err := Compare(l, r)
		if err != nil {
			return false, err
		}
		switch op {
		case "<":
			return c < 0, nil
		case ">":
			return c > 0, nil
		case "<=":
			return c <= 0, nil
		default:
			return c >= 0, nil
		}
	case "in", "not in":
		ok, err := ip.contains(r, l)
		if err != nil {
			return false, err
		}
		if op == "not in" {
			return !ok, nil
		}
		return ok, nil
	case "is":
		return valueIs(l, r), nil
	case "is not":
		return !valueIs(l, r), nil
	default:
		return false, Raise("SystemError", "unknown comparison %q", op)
	}
}

func valueIs(l, r Value) bool {
	if _, ok := l.(NoneVal); ok {
		_, ok2 := r.(NoneVal)
		return ok2
	}
	if _, ok := r.(NoneVal); ok {
		return false
	}
	// identity for reference types, equality for scalars
	switch l.(type) {
	case Bool, Int, Float, Str:
		return Equal(l, r)
	}
	return l == r
}

func (ip *Interp) contains(container, item Value) (bool, error) {
	switch c := container.(type) {
	case Str:
		s, ok := item.(Str)
		if !ok {
			return false, Raise("TypeError", "'in <string>' requires string as left operand, not %s", TypeName(item))
		}
		return strings.Contains(string(c), string(s)), nil
	case *Dict:
		_, ok, err := c.Get(item)
		if err != nil {
			return false, Raise("TypeError", "%s", err)
		}
		return ok, nil
	case *Set:
		ok, err := c.Has(item)
		if err != nil {
			return false, Raise("TypeError", "%s", err)
		}
		return ok, nil
	case *Range:
		return c.contains(item), nil
	}
	// Any other iterable is scanned; a generator is consumed up to the
	// first match.
	items, err := ip.iter(container)
	if err != nil {
		return false, Raise("TypeError", "argument of type %s is not iterable", TypeName(container))
	}
	for {
		it, ok, err := items.Next()
		if !ok || err != nil {
			return false, err
		}
		if Equal(it, item) {
			return true, nil
		}
	}
}

// ---- indexing ----

func (ip *Interp) getIndex(obj, key Value) (Value, error) {
	switch o := obj.(type) {
	case *List:
		idx, err := seqIndex(key, len(o.Items))
		if err != nil {
			return nil, err
		}
		return o.Items[idx], nil
	case *Tuple:
		idx, err := seqIndex(key, len(o.Items))
		if err != nil {
			return nil, err
		}
		return o.Items[idx], nil
	case *Range:
		idx, err := seqIndex(key, int(o.Len()))
		if err != nil {
			return nil, err
		}
		return Int(o.Start + int64(idx)*o.Step), nil
	case Str:
		runes := []rune(string(o))
		idx, err := seqIndex(key, len(runes))
		if err != nil {
			return nil, err
		}
		return Str(string(runes[idx])), nil
	case *Dict:
		v, ok, err := o.Get(key)
		if err != nil {
			return nil, Raise("TypeError", "%s", err)
		}
		if !ok {
			return nil, Raise("KeyError", "%s", Repr(key))
		}
		return v, nil
	case *Instance:
		// defaultdict-style __getitem__ support
		if m, ok := o.Class.lookupNative("__getitem__"); ok {
			return m(ip, o, []Value{key}, nil)
		}
		if m, ok := o.Class.lookupMethod("__getitem__"); ok {
			return ip.callFunction(m, o, []Value{key}, nil)
		}
		return nil, Raise("TypeError", "%s object is not subscriptable", TypeName(obj))
	case *NativeObject:
		if g, ok := o.Attr("__getitem__"); ok {
			return ip.Call(g, key)
		}
		return nil, Raise("TypeError", "%s object is not subscriptable", TypeName(obj))
	default:
		return nil, Raise("TypeError", "%s object is not subscriptable", TypeName(obj))
	}
}

func seqIndex(key Value, n int) (int, error) {
	i, ok := asInt(key)
	if !ok {
		return 0, Raise("TypeError", "indices must be integers, not %s", TypeName(key))
	}
	idx := int(i)
	if idx < 0 {
		idx += n
	}
	if idx < 0 || idx >= n {
		return 0, Raise("IndexError", "index out of range")
	}
	return idx, nil
}

func (ip *Interp) setIndex(obj, key, v Value) error {
	switch o := obj.(type) {
	case *List:
		idx, err := seqIndex(key, len(o.Items))
		if err != nil {
			return err
		}
		o.Items[idx] = v
		return nil
	case *Dict:
		if err := o.Set(key, v); err != nil {
			return Raise("TypeError", "%s", err)
		}
		return nil
	case *Instance:
		if m, ok := o.Class.lookupNative("__setitem__"); ok {
			_, err := m(ip, o, []Value{key, v}, nil)
			return err
		}
		if m, ok := o.Class.lookupMethod("__setitem__"); ok {
			_, err := ip.callFunction(m, o, []Value{key, v}, nil)
			return err
		}
		return Raise("TypeError", "%s object does not support item assignment", TypeName(obj))
	default:
		return Raise("TypeError", "%s object does not support item assignment", TypeName(obj))
	}
}

func (ip *Interp) getSlice(obj, lo, hi Value) (Value, error) {
	bounds := func(n int) (int, int, error) {
		start, end := 0, n
		if _, isNone := lo.(NoneVal); !isNone {
			i, ok := asInt(lo)
			if !ok {
				return 0, 0, Raise("TypeError", "slice indices must be integers")
			}
			start = clampIndex(int(i), n)
		}
		if _, isNone := hi.(NoneVal); !isNone {
			i, ok := asInt(hi)
			if !ok {
				return 0, 0, Raise("TypeError", "slice indices must be integers")
			}
			end = clampIndex(int(i), n)
		}
		if start > end {
			start = end
		}
		return start, end, nil
	}
	switch o := obj.(type) {
	case *List:
		s, e, err := bounds(len(o.Items))
		if err != nil {
			return nil, err
		}
		return &List{Items: append([]Value(nil), o.Items[s:e]...)}, nil
	case *Tuple:
		s, e, err := bounds(len(o.Items))
		if err != nil {
			return nil, err
		}
		return &Tuple{Items: append([]Value(nil), o.Items[s:e]...)}, nil
	case *Range:
		s, e, err := bounds(int(o.Len()))
		if err != nil {
			return nil, err
		}
		return &Range{Start: o.Start + int64(s)*o.Step, Stop: o.Start + int64(e)*o.Step, Step: o.Step}, nil
	case Str:
		runes := []rune(string(o))
		s, e, err := bounds(len(runes))
		if err != nil {
			return nil, err
		}
		return Str(string(runes[s:e])), nil
	default:
		return nil, Raise("TypeError", "%s object is not sliceable", TypeName(obj))
	}
}

func clampIndex(i, n int) int {
	if i < 0 {
		i += n
	}
	if i < 0 {
		return 0
	}
	if i > n {
		return n
	}
	return i
}

// ---- attributes ----

func (ip *Interp) getAttr(obj Value, name string) (Value, error) {
	switch o := obj.(type) {
	case *Instance:
		if v, ok := o.Attrs[name]; ok {
			return v, nil
		}
		if m, ok := o.Class.lookupMethod(name); ok {
			return &BoundMethod{Self: o, Fn: m}, nil
		}
		if nm, ok := o.Class.lookupNative(name); ok {
			inst := o
			fn := nm
			return &NativeBound{Name: name, Fn: func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
				return fn(ip, inst, args, kwargs)
			}}, nil
		}
		if v, ok := o.Class.lookupStatic(name); ok {
			return v, nil
		}
		return nil, Raise("AttributeError", "%q object has no attribute %q", o.Class.Name, name)
	case *Module:
		if v, ok := o.Attrs[name]; ok {
			return v, nil
		}
		return nil, Raise("AttributeError", "module %q has no attribute %q", o.Name, name)
	case *Class:
		if m, ok := o.lookupMethod(name); ok {
			// unbound: first arg must be self (Base.__init__(self) pattern)
			return m, nil
		}
		if v, ok := o.lookupStatic(name); ok {
			return v, nil
		}
		if nm, ok := o.lookupNative(name); ok {
			fn := nm
			return &NativeFunc{Name: name, Fn: func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
				if len(args) == 0 {
					return nil, Raise("TypeError", "%s() missing 'self'", name)
				}
				self, ok := args[0].(*Instance)
				if !ok {
					return nil, Raise("TypeError", "%s() 'self' must be an instance", name)
				}
				return fn(ip, self, args[1:], kwargs)
			}}, nil
		}
		if o.NativeInit != nil && name == "__init__" {
			init := o.NativeInit
			return &NativeFunc{Name: o.Name + ".__init__", Fn: func(ip *Interp, args []Value, kwargs map[string]Value) (Value, error) {
				if len(args) == 0 {
					return nil, Raise("TypeError", "__init__() missing 'self'")
				}
				self, ok := args[0].(*Instance)
				if !ok {
					return nil, Raise("TypeError", "__init__() 'self' must be an instance")
				}
				return None, init(ip, self, args[1:])
			}}, nil
		}
		return nil, Raise("AttributeError", "type %q has no attribute %q", o.Name, name)
	case Str:
		if m, ok := strMethod(o, name); ok {
			return m, nil
		}
		return nil, Raise("AttributeError", "'str' object has no attribute %q", name)
	case *List:
		if m, ok := listMethod(o, name); ok {
			return m, nil
		}
		return nil, Raise("AttributeError", "'list' object has no attribute %q", name)
	case *Dict:
		if m, ok := dictMethod(o, name); ok {
			return m, nil
		}
		return nil, Raise("AttributeError", "'dict' object has no attribute %q", name)
	case *Set:
		if m, ok := setMethod(o, name); ok {
			return m, nil
		}
		return nil, Raise("AttributeError", "'set' object has no attribute %q", name)
	case *Tuple:
		if m, ok := tupleMethod(o, name); ok {
			return m, nil
		}
		return nil, Raise("AttributeError", "'tuple' object has no attribute %q", name)
	case *NativeObject:
		if o.Attr != nil {
			if v, ok := o.Attr(name); ok {
				return v, nil
			}
		}
		return nil, Raise("AttributeError", "%q object has no attribute %q", o.TypeName, name)
	case *Function:
		if name == "__name__" {
			return Str(o.Name), nil
		}
		if name == "__doc__" {
			return Str(o.Doc), nil
		}
		return nil, Raise("AttributeError", "function has no attribute %q", name)
	default:
		return nil, Raise("AttributeError", "%s object has no attribute %q", TypeName(obj), name)
	}
}

func (ip *Interp) setAttr(obj Value, name string, v Value) error {
	switch o := obj.(type) {
	case *Instance:
		o.Attrs[name] = v
		return nil
	case *Class:
		o.Statics[name] = v
		return nil
	case *Module:
		o.Attrs[name] = v
		return nil
	default:
		return Raise("AttributeError", "cannot set attribute %q on %s", name, TypeName(obj))
	}
}

func (ip *Interp) importModule(name string) (*Module, error) {
	if m, ok := ip.modules[name]; ok {
		return m, nil
	}
	// flat namespace: `import os.path` resolves `os`
	root := strings.Split(name, ".")[0]
	if m, ok := ip.modules[root]; ok {
		return m, nil
	}
	return nil, Raise("ModuleNotFoundError", "no module named %q", name)
}

// ---- %-formatting ----

func formatPercent(format string, arg Value) (Value, error) {
	var args []Value
	if t, ok := arg.(*Tuple); ok {
		args = t.Items
	} else {
		args = []Value{arg}
	}
	var sb strings.Builder
	ai := 0
	i := 0
	for i < len(format) {
		c := format[i]
		if c != '%' {
			sb.WriteByte(c)
			i++
			continue
		}
		if i+1 >= len(format) {
			return nil, Raise("ValueError", "incomplete format")
		}
		i++
		if format[i] == '%' {
			sb.WriteByte('%')
			i++
			continue
		}
		// parse optional width.precision flags (digits, '.', '-')
		spec := ""
		for i < len(format) && (isDigit(format[i]) || format[i] == '.' || format[i] == '-' || format[i] == '+') {
			spec += string(format[i])
			i++
		}
		if i >= len(format) {
			return nil, Raise("ValueError", "incomplete format")
		}
		verb := format[i]
		i++
		if ai >= len(args) {
			return nil, Raise("TypeError", "not enough arguments for format string")
		}
		a := args[ai]
		ai++
		switch verb {
		case 's':
			fmt.Fprintf(&sb, "%"+spec+"s", ToStr(a))
		case 'd', 'i':
			n, ok := asInt(a)
			if !ok {
				if f, okf := toFloat(a); okf {
					n = int64(f)
				} else {
					return nil, Raise("TypeError", "%%d format: a number is required, not %s", TypeName(a))
				}
			}
			fmt.Fprintf(&sb, "%"+spec+"d", n)
		case 'f', 'F':
			f, ok := toFloat(a)
			if !ok {
				return nil, Raise("TypeError", "float argument required, not %s", TypeName(a))
			}
			if spec == "" {
				spec = ".6"
			}
			fmt.Fprintf(&sb, "%"+spec+"f", f)
		case 'g':
			f, ok := toFloat(a)
			if !ok {
				return nil, Raise("TypeError", "float argument required, not %s", TypeName(a))
			}
			fmt.Fprintf(&sb, "%"+spec+"g", f)
		case 'x':
			n, ok := asInt(a)
			if !ok {
				return nil, Raise("TypeError", "%%x format: an integer is required")
			}
			fmt.Fprintf(&sb, "%"+spec+"x", n)
		case 'r':
			fmt.Fprintf(&sb, "%"+spec+"s", Repr(a))
		default:
			return nil, Raise("ValueError", "unsupported format character %q", string(verb))
		}
	}
	if ai < len(args) {
		return nil, Raise("TypeError", "not all arguments converted during string formatting")
	}
	return Str(sb.String()), nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
