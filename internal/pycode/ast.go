package pycode

// Node is implemented by every AST node.
type Node interface {
	Pos() (line, col int)
}

type position struct {
	Line int
	Col  int
}

func (p position) Pos() (int, int) { return p.Line, p.Col }

// ---- Statements ----

// Stmt is a statement node.
type Stmt interface{ Node }

// Program is a parsed source file: a list of top-level statements.
type Program struct {
	position
	Body []Stmt
}

// ExprStmt is an expression evaluated for its side effects.
type ExprStmt struct {
	position
	X Expr
}

// AssignStmt is `target = value` (also `a, b = expr` via TupleExpr target,
// and chained `a = b = expr` via multiple Targets).
type AssignStmt struct {
	position
	Targets []Expr // NameExpr, AttrExpr, IndexExpr or TupleExpr of those
	Value   Expr
}

// AugAssignStmt is `target op= value` for op in + - * / // % **.
type AugAssignStmt struct {
	position
	Target Expr
	Op     string // "+", "-", ...
	Value  Expr
}

// IfStmt is if/elif/else. Elifs are nested IfStmt in Else.
type IfStmt struct {
	position
	Cond Expr
	Body []Stmt
	Else []Stmt // may be nil
}

// WhileStmt is a while loop.
type WhileStmt struct {
	position
	Cond Expr
	Body []Stmt
	Else []Stmt
}

// ForStmt is `for target in iter: body`.
type ForStmt struct {
	position
	Target Expr // NameExpr or TupleExpr
	Iter   Expr
	Body   []Stmt
	Else   []Stmt
}

// DefStmt is a function definition.
type DefStmt struct {
	position
	Name   string
	Params []Param
	Body   []Stmt
	Doc    string // leading docstring, if any
}

// Param is a function parameter with an optional default.
type Param struct {
	Name    string
	Default Expr // nil if required
}

// ClassStmt is a class definition with at most one base.
type ClassStmt struct {
	position
	Name string
	Base Expr // nil for no base
	Body []Stmt
	Doc  string
}

// ReturnStmt returns from a function (Value may be nil).
type ReturnStmt struct {
	position
	Value Expr
}

// PassStmt is a no-op.
type PassStmt struct{ position }

// BreakStmt exits the nearest loop.
type BreakStmt struct{ position }

// ContinueStmt continues the nearest loop.
type ContinueStmt struct{ position }

// ImportStmt is `import a, b` or `import a as b`.
type ImportStmt struct {
	position
	Names []ImportName
}

// ImportName is one imported module, possibly aliased.
type ImportName struct {
	Module string
	Alias  string // "" means same as Module
}

// FromImportStmt is `from mod import a, b as c`.
type FromImportStmt struct {
	position
	Module string
	Names  []ImportName // Module field holds the attribute name here
}

// GlobalStmt declares names as module-global inside a function.
type GlobalStmt struct {
	position
	Names []string
}

// DelStmt removes a binding or container item.
type DelStmt struct {
	position
	Targets []Expr
}

// RaiseStmt raises an exception (Value may be nil for bare re-raise).
type RaiseStmt struct {
	position
	Value Expr
}

// TryStmt is try/except/finally. Only a single catch-all or typed except
// clause list is supported.
type TryStmt struct {
	position
	Body     []Stmt
	Handlers []ExceptClause
	Finally  []Stmt
}

// ExceptClause is one `except [Type] [as name]:` handler.
type ExceptClause struct {
	TypeName string // "" catches everything
	AsName   string
	Body     []Stmt
}

// ---- Expressions ----

// Expr is an expression node.
type Expr interface{ Node }

// NameExpr references a variable.
type NameExpr struct {
	position
	Name string
}

// NumberExpr is an integer or float literal.
type NumberExpr struct {
	position
	IsFloat bool
	Int     int64
	Float   float64
}

// StringExpr is a string literal (already unescaped).
type StringExpr struct {
	position
	Value string
}

// BoolExpr is True/False.
type BoolExpr struct {
	position
	Value bool
}

// NoneExpr is None.
type NoneExpr struct{ position }

// ListExpr is a list display [a, b, c].
type ListExpr struct {
	position
	Items []Expr
}

// TupleExpr is a tuple display (a, b) or bare a, b.
type TupleExpr struct {
	position
	Items []Expr
}

// DictExpr is a dict display {k: v, ...}.
type DictExpr struct {
	position
	Keys   []Expr
	Values []Expr
}

// SetExpr is a set display {a, b}; represented at runtime as a dict of keys.
type SetExpr struct {
	position
	Items []Expr
}

// UnaryExpr is -x, +x or `not x`.
type UnaryExpr struct {
	position
	Op string
	X  Expr
}

// BinaryExpr is a binary arithmetic/logic operation (short-circuit ops use
// BoolOpExpr).
type BinaryExpr struct {
	position
	Op   string
	L, R Expr
}

// BoolOpExpr is short-circuit `and`/`or` over two or more operands.
type BoolOpExpr struct {
	position
	Op    string // "and" | "or"
	Exprs []Expr
}

// CompareExpr is a (possibly chained) comparison a < b <= c.
type CompareExpr struct {
	position
	First Expr
	Ops   []string // "==", "!=", "<", ">", "<=", ">=", "in", "not in", "is", "is not"
	Rest  []Expr
}

// CondExpr is the ternary `a if cond else b`.
type CondExpr struct {
	position
	Cond, Then, Else Expr
}

// CallExpr is fn(args, kw=val, *star).
type CallExpr struct {
	position
	Fn       Expr
	Args     []Expr
	KwNames  []string
	KwValues []Expr
}

// AttrExpr is obj.name.
type AttrExpr struct {
	position
	X    Expr
	Name string
}

// IndexExpr is obj[key].
type IndexExpr struct {
	position
	X   Expr
	Key Expr
}

// SliceExpr is obj[lo:hi] (step unsupported; lo/hi may be nil).
type SliceExpr struct {
	position
	X      Expr
	Lo, Hi Expr
}

// LambdaExpr is `lambda params: body`.
type LambdaExpr struct {
	position
	Params []Param
	Body   Expr
}

// CompExpr is a comprehension, [Elt for Target in Iter if Cond], or, with
// IsGen, a generator expression: in call position, f(x for x in xs), or
// parenthesised, (x for x in xs). A generator expression evaluates to a
// lazy *Generator; the others build their list, set or dict at once.
type CompExpr struct {
	position
	Elt    Expr
	Target Expr
	Iter   Expr
	Cond   Expr // may be nil
	IsGen  bool
	IsSet  bool
	IsDict bool
	Val    Expr // value expr when IsDict
}
