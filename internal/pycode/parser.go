package pycode

import (
	"fmt"
	"strconv"
	"strings"
)

type parser struct {
	toks []Token
	pos  int
}

// Parse lexes and parses source text into a Module.
func Parse(src string) (*Program, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	mod := &Program{position: position{1, 1}}
	for !p.at(EOF) {
		if p.at(NEWLINE) {
			p.next()
			continue
		}
		st, err := p.statement()
		if err != nil {
			return nil, err
		}
		mod.Body = append(mod.Body, st)
	}
	return mod, nil
}

func (p *parser) cur() Token  { return p.toks[p.pos] }
func (p *parser) next() Token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) at(k Kind) bool { return p.cur().Kind == k }

func (p *parser) atOp(text string) bool {
	t := p.cur()
	return t.Kind == OP && t.Text == text
}

func (p *parser) atKw(text string) bool {
	t := p.cur()
	return t.Kind == KEYWORD && t.Text == text
}

func (p *parser) acceptOp(text string) bool {
	if p.atOp(text) {
		p.next()
		return true
	}
	return false
}

func (p *parser) acceptKw(text string) bool {
	if p.atKw(text) {
		p.next()
		return true
	}
	return false
}

func (p *parser) errf(format string, args ...any) error {
	t := p.cur()
	return &SyntaxError{Line: t.Line, Col: t.Col, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) expectOp(text string) error {
	if !p.acceptOp(text) {
		return p.errf("expected %q, found %s", text, p.cur())
	}
	return nil
}

func (p *parser) expectKind(k Kind) (Token, error) {
	if !p.at(k) {
		return Token{}, p.errf("expected %s, found %s", k, p.cur())
	}
	return p.next(), nil
}

func (p *parser) posHere() position {
	t := p.cur()
	return position{t.Line, t.Col}
}

// ---- statements ----

func (p *parser) statement() (Stmt, error) {
	t := p.cur()
	if t.Kind == KEYWORD {
		switch t.Text {
		case "if":
			return p.ifStmt()
		case "while":
			return p.whileStmt()
		case "for":
			return p.forStmt()
		case "def":
			return p.defStmt()
		case "class":
			return p.classStmt()
		case "try":
			return p.tryStmt()
		case "return", "pass", "break", "continue", "import", "from",
			"global", "del", "raise":
			return p.simpleLine()
		}
	}
	return p.simpleLine()
}

// simpleLine parses a simple statement followed by NEWLINE (or EOF/DEDENT).
func (p *parser) simpleLine() (Stmt, error) {
	st, err := p.simpleStmt()
	if err != nil {
		return nil, err
	}
	// Permit trailing semicolon-separated statements? Keep grammar small: a
	// single statement per line, but tolerate a trailing ';'.
	p.acceptOp(";")
	if p.at(NEWLINE) {
		p.next()
		return st, nil
	}
	if p.at(EOF) || p.at(DEDENT) {
		return st, nil
	}
	return nil, p.errf("expected end of line, found %s", p.cur())
}

func (p *parser) simpleStmt() (Stmt, error) {
	pos := p.posHere()
	t := p.cur()
	if t.Kind == KEYWORD {
		switch t.Text {
		case "return":
			p.next()
			var val Expr
			if !p.at(NEWLINE) && !p.at(EOF) && !p.at(DEDENT) && !p.atOp(";") {
				v, err := p.exprList()
				if err != nil {
					return nil, err
				}
				val = v
			}
			return &ReturnStmt{position: pos, Value: val}, nil
		case "pass":
			p.next()
			return &PassStmt{position: pos}, nil
		case "break":
			p.next()
			return &BreakStmt{position: pos}, nil
		case "continue":
			p.next()
			return &ContinueStmt{position: pos}, nil
		case "import":
			return p.importStmt(pos)
		case "from":
			return p.fromImportStmt(pos)
		case "global":
			p.next()
			var names []string
			for {
				n, err := p.expectKind(NAME)
				if err != nil {
					return nil, err
				}
				names = append(names, n.Text)
				if !p.acceptOp(",") {
					break
				}
			}
			return &GlobalStmt{position: pos, Names: names}, nil
		case "del":
			p.next()
			var targets []Expr
			for {
				e, err := p.expr()
				if err != nil {
					return nil, err
				}
				targets = append(targets, e)
				if !p.acceptOp(",") {
					break
				}
			}
			return &DelStmt{position: pos, Targets: targets}, nil
		case "raise":
			p.next()
			var val Expr
			if !p.at(NEWLINE) && !p.at(EOF) && !p.at(DEDENT) {
				v, err := p.expr()
				if err != nil {
					return nil, err
				}
				val = v
			}
			return &RaiseStmt{position: pos, Value: val}, nil
		}
	}
	// Expression / assignment.
	first, err := p.exprList()
	if err != nil {
		return nil, err
	}
	if p.at(OP) {
		op := p.cur().Text
		switch op {
		case "=":
			// Chained assignment a = b = expr: every expression before the
			// final one is a target.
			chain := []Expr{first}
			for p.acceptOp("=") {
				e, err := p.exprList()
				if err != nil {
					return nil, err
				}
				chain = append(chain, e)
			}
			value := chain[len(chain)-1]
			targets := chain[:len(chain)-1]
			return p.finishAssign(pos, targets, value)
		case "+=", "-=", "*=", "/=", "//=", "%=", "**=":
			p.next()
			v, err := p.exprList()
			if err != nil {
				return nil, err
			}
			return &AugAssignStmt{position: pos, Target: first, Op: strings.TrimSuffix(op, "="), Value: v}, nil
		}
	}
	return &ExprStmt{position: pos, X: first}, nil
}

// finishAssign validates targets of `t1 = t2 = ... = value`.
func (p *parser) finishAssign(pos position, targets []Expr, value Expr) (Stmt, error) {
	for _, t := range targets {
		if err := checkTarget(t); err != nil {
			return nil, err
		}
	}
	return &AssignStmt{position: pos, Targets: targets, Value: value}, nil
}

func checkTarget(e Expr) error {
	switch t := e.(type) {
	case *NameExpr, *AttrExpr, *IndexExpr:
		return nil
	case *TupleExpr:
		for _, it := range t.Items {
			if err := checkTarget(it); err != nil {
				return err
			}
		}
		return nil
	case *ListExpr:
		for _, it := range t.Items {
			if err := checkTarget(it); err != nil {
				return err
			}
		}
		return nil
	default:
		line, col := e.Pos()
		return &SyntaxError{Line: line, Col: col, Msg: "invalid assignment target"}
	}
}

func (p *parser) importStmt(pos position) (Stmt, error) {
	p.next() // import
	st := &ImportStmt{position: pos}
	for {
		mod, err := p.dottedName()
		if err != nil {
			return nil, err
		}
		alias := ""
		if p.acceptKw("as") {
			a, err := p.expectKind(NAME)
			if err != nil {
				return nil, err
			}
			alias = a.Text
		}
		st.Names = append(st.Names, ImportName{Module: mod, Alias: alias})
		if !p.acceptOp(",") {
			break
		}
	}
	return st, nil
}

func (p *parser) fromImportStmt(pos position) (Stmt, error) {
	p.next() // from
	mod, err := p.dottedName()
	if err != nil {
		return nil, err
	}
	if !p.acceptKw("import") {
		return nil, p.errf("expected 'import'")
	}
	st := &FromImportStmt{position: pos, Module: mod}
	if p.acceptOp("*") {
		st.Names = append(st.Names, ImportName{Module: "*"})
		return st, nil
	}
	for {
		n, err := p.expectKind(NAME)
		if err != nil {
			return nil, err
		}
		alias := ""
		if p.acceptKw("as") {
			a, err := p.expectKind(NAME)
			if err != nil {
				return nil, err
			}
			alias = a.Text
		}
		st.Names = append(st.Names, ImportName{Module: n.Text, Alias: alias})
		if !p.acceptOp(",") {
			break
		}
	}
	return st, nil
}

func (p *parser) dottedName() (string, error) {
	n, err := p.expectKind(NAME)
	if err != nil {
		return "", err
	}
	name := n.Text
	for p.atOp(".") {
		p.next()
		part, err := p.expectKind(NAME)
		if err != nil {
			return "", err
		}
		name += "." + part.Text
	}
	return name, nil
}

func (p *parser) block() ([]Stmt, error) {
	if err := p.expectOp(":"); err != nil {
		return nil, err
	}
	// Inline suite: `if x: return y`
	if !p.at(NEWLINE) {
		st, err := p.simpleLine()
		if err != nil {
			return nil, err
		}
		return []Stmt{st}, nil
	}
	p.next() // NEWLINE
	if _, err := p.expectKind(INDENT); err != nil {
		return nil, err
	}
	var body []Stmt
	for !p.at(DEDENT) && !p.at(EOF) {
		if p.at(NEWLINE) {
			p.next()
			continue
		}
		st, err := p.statement()
		if err != nil {
			return nil, err
		}
		body = append(body, st)
	}
	if p.at(DEDENT) {
		p.next()
	}
	if len(body) == 0 {
		return nil, p.errf("empty block")
	}
	return body, nil
}

func (p *parser) ifStmt() (Stmt, error) {
	pos := p.posHere()
	p.next() // if / elif
	cond, err := p.expr()
	if err != nil {
		return nil, err
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	st := &IfStmt{position: pos, Cond: cond, Body: body}
	if p.atKw("elif") {
		sub, err := p.ifStmt()
		if err != nil {
			return nil, err
		}
		st.Else = []Stmt{sub}
	} else if p.acceptKw("else") {
		els, err := p.block()
		if err != nil {
			return nil, err
		}
		st.Else = els
	}
	return st, nil
}

func (p *parser) whileStmt() (Stmt, error) {
	pos := p.posHere()
	p.next()
	cond, err := p.expr()
	if err != nil {
		return nil, err
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	st := &WhileStmt{position: pos, Cond: cond, Body: body}
	if p.acceptKw("else") {
		els, err := p.block()
		if err != nil {
			return nil, err
		}
		st.Else = els
	}
	return st, nil
}

func (p *parser) forStmt() (Stmt, error) {
	pos := p.posHere()
	p.next()
	target, err := p.targetList()
	if err != nil {
		return nil, err
	}
	if !p.acceptKw("in") {
		return nil, p.errf("expected 'in'")
	}
	iter, err := p.exprList()
	if err != nil {
		return nil, err
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	st := &ForStmt{position: pos, Target: target, Iter: iter, Body: body}
	if p.acceptKw("else") {
		els, err := p.block()
		if err != nil {
			return nil, err
		}
		st.Else = els
	}
	return st, nil
}

// targetList parses `a` or `a, b` (for-loop targets).
func (p *parser) targetList() (Expr, error) {
	pos := p.posHere()
	first, err := p.primaryTarget()
	if err != nil {
		return nil, err
	}
	if !p.atOp(",") {
		return first, nil
	}
	items := []Expr{first}
	for p.acceptOp(",") {
		if p.atKw("in") {
			break
		}
		e, err := p.primaryTarget()
		if err != nil {
			return nil, err
		}
		items = append(items, e)
	}
	return &TupleExpr{position: pos, Items: items}, nil
}

func (p *parser) primaryTarget() (Expr, error) {
	if p.atOp("(") {
		p.next()
		t, err := p.targetList()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return t, nil
	}
	e, err := p.unary()
	if err != nil {
		return nil, err
	}
	if err := checkTarget(e); err != nil {
		return nil, err
	}
	return e, nil
}

func (p *parser) defStmt() (Stmt, error) {
	pos := p.posHere()
	p.next()
	name, err := p.expectKind(NAME)
	if err != nil {
		return nil, err
	}
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	params, err := p.paramList()
	if err != nil {
		return nil, err
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	doc := extractDoc(body)
	return &DefStmt{position: pos, Name: name.Text, Params: params, Body: body, Doc: doc}, nil
}

func (p *parser) paramList() ([]Param, error) {
	var params []Param
	for !p.atOp(")") {
		n, err := p.expectKind(NAME)
		if err != nil {
			return nil, err
		}
		var def Expr
		if p.acceptOp("=") {
			d, err := p.expr()
			if err != nil {
				return nil, err
			}
			def = d
		} else if p.acceptOp(":") {
			// type annotation — parse and discard
			if _, err := p.expr(); err != nil {
				return nil, err
			}
			if p.acceptOp("=") {
				d, err := p.expr()
				if err != nil {
					return nil, err
				}
				def = d
			}
		}
		params = append(params, Param{Name: n.Text, Default: def})
		if !p.acceptOp(",") {
			break
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return params, nil
}

func (p *parser) classStmt() (Stmt, error) {
	pos := p.posHere()
	p.next()
	name, err := p.expectKind(NAME)
	if err != nil {
		return nil, err
	}
	var base Expr
	if p.acceptOp("(") {
		if !p.atOp(")") {
			b, err := p.expr()
			if err != nil {
				return nil, err
			}
			base = b
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	doc := extractDoc(body)
	return &ClassStmt{position: pos, Name: name.Text, Base: base, Body: body, Doc: doc}, nil
}

func (p *parser) tryStmt() (Stmt, error) {
	pos := p.posHere()
	p.next()
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	st := &TryStmt{position: pos, Body: body}
	for p.atKw("except") {
		p.next()
		cl := ExceptClause{}
		if !p.atOp(":") {
			n, err := p.expectKind(NAME)
			if err != nil {
				return nil, err
			}
			cl.TypeName = n.Text
			if p.acceptKw("as") {
				a, err := p.expectKind(NAME)
				if err != nil {
					return nil, err
				}
				cl.AsName = a.Text
			}
		}
		hb, err := p.block()
		if err != nil {
			return nil, err
		}
		cl.Body = hb
		st.Handlers = append(st.Handlers, cl)
	}
	if p.acceptKw("finally") {
		fb, err := p.block()
		if err != nil {
			return nil, err
		}
		st.Finally = fb
	}
	if len(st.Handlers) == 0 && st.Finally == nil {
		return nil, p.errf("try without except or finally")
	}
	return st, nil
}

func extractDoc(body []Stmt) string {
	if len(body) == 0 {
		return ""
	}
	if es, ok := body[0].(*ExprStmt); ok {
		if s, ok := es.X.(*StringExpr); ok {
			return s.Value
		}
	}
	return ""
}

// ---- expressions ----

// exprList parses `expr (',' expr)*` producing a TupleExpr when more than
// one element is present (bare tuples like `word, count`).
func (p *parser) exprList() (Expr, error) {
	pos := p.posHere()
	first, err := p.expr()
	if err != nil {
		return nil, err
	}
	if !p.atOp(",") {
		return first, nil
	}
	items := []Expr{first}
	for p.acceptOp(",") {
		if p.at(NEWLINE) || p.at(EOF) || p.atOp("=") || p.atOp(")") || p.atOp("]") || p.atOp("}") || p.atOp(":") {
			break // trailing comma
		}
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		items = append(items, e)
	}
	return &TupleExpr{position: pos, Items: items}, nil
}

// expr parses a full conditional expression.
func (p *parser) expr() (Expr, error) {
	if p.atKw("lambda") {
		return p.lambda()
	}
	e, err := p.orExpr()
	if err != nil {
		return nil, err
	}
	if p.atKw("if") {
		pos := p.posHere()
		p.next()
		cond, err := p.orExpr()
		if err != nil {
			return nil, err
		}
		if !p.acceptKw("else") {
			return nil, p.errf("expected 'else' in conditional expression")
		}
		els, err := p.expr()
		if err != nil {
			return nil, err
		}
		return &CondExpr{position: pos, Cond: cond, Then: e, Else: els}, nil
	}
	return e, nil
}

func (p *parser) lambda() (Expr, error) {
	pos := p.posHere()
	p.next()
	var params []Param
	for !p.atOp(":") {
		n, err := p.expectKind(NAME)
		if err != nil {
			return nil, err
		}
		var def Expr
		if p.acceptOp("=") {
			d, err := p.expr()
			if err != nil {
				return nil, err
			}
			def = d
		}
		params = append(params, Param{Name: n.Text, Default: def})
		if !p.acceptOp(",") {
			break
		}
	}
	if err := p.expectOp(":"); err != nil {
		return nil, err
	}
	body, err := p.expr()
	if err != nil {
		return nil, err
	}
	return &LambdaExpr{position: pos, Params: params, Body: body}, nil
}

func (p *parser) orExpr() (Expr, error) {
	pos := p.posHere()
	e, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	if !p.atKw("or") {
		return e, nil
	}
	exprs := []Expr{e}
	for p.acceptKw("or") {
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		exprs = append(exprs, r)
	}
	return &BoolOpExpr{position: pos, Op: "or", Exprs: exprs}, nil
}

func (p *parser) andExpr() (Expr, error) {
	pos := p.posHere()
	e, err := p.notExpr()
	if err != nil {
		return nil, err
	}
	if !p.atKw("and") {
		return e, nil
	}
	exprs := []Expr{e}
	for p.acceptKw("and") {
		r, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		exprs = append(exprs, r)
	}
	return &BoolOpExpr{position: pos, Op: "and", Exprs: exprs}, nil
}

func (p *parser) notExpr() (Expr, error) {
	if p.atKw("not") {
		pos := p.posHere()
		p.next()
		x, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{position: pos, Op: "not", X: x}, nil
	}
	return p.comparison()
}

func (p *parser) comparison() (Expr, error) {
	pos := p.posHere()
	first, err := p.arith()
	if err != nil {
		return nil, err
	}
	var ops []string
	var rest []Expr
	for {
		var op string
		t := p.cur()
		switch {
		case t.Kind == OP && (t.Text == "==" || t.Text == "!=" || t.Text == "<" ||
			t.Text == ">" || t.Text == "<=" || t.Text == ">="):
			op = t.Text
			p.next()
		case t.Kind == KEYWORD && t.Text == "in":
			op = "in"
			p.next()
		case t.Kind == KEYWORD && t.Text == "not" && p.toks[p.pos+1].Kind == KEYWORD && p.toks[p.pos+1].Text == "in":
			op = "not in"
			p.next()
			p.next()
		case t.Kind == KEYWORD && t.Text == "is":
			p.next()
			if p.atKw("not") {
				p.next()
				op = "is not"
			} else {
				op = "is"
			}
		default:
			if len(ops) == 0 {
				return first, nil
			}
			return &CompareExpr{position: pos, First: first, Ops: ops, Rest: rest}, nil
		}
		r, err := p.arith()
		if err != nil {
			return nil, err
		}
		ops = append(ops, op)
		rest = append(rest, r)
	}
}

func (p *parser) arith() (Expr, error) {
	e, err := p.term()
	if err != nil {
		return nil, err
	}
	for p.atOp("+") || p.atOp("-") {
		pos := p.posHere()
		op := p.next().Text
		r, err := p.term()
		if err != nil {
			return nil, err
		}
		e = &BinaryExpr{position: pos, Op: op, L: e, R: r}
	}
	return e, nil
}

func (p *parser) term() (Expr, error) {
	e, err := p.factor()
	if err != nil {
		return nil, err
	}
	for p.atOp("*") || p.atOp("/") || p.atOp("//") || p.atOp("%") {
		pos := p.posHere()
		op := p.next().Text
		r, err := p.factor()
		if err != nil {
			return nil, err
		}
		e = &BinaryExpr{position: pos, Op: op, L: e, R: r}
	}
	return e, nil
}

func (p *parser) factor() (Expr, error) {
	if p.atOp("-") || p.atOp("+") {
		pos := p.posHere()
		op := p.next().Text
		x, err := p.factor()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{position: pos, Op: op, X: x}, nil
	}
	return p.power()
}

func (p *parser) power() (Expr, error) {
	e, err := p.unary()
	if err != nil {
		return nil, err
	}
	if p.atOp("**") {
		pos := p.posHere()
		p.next()
		r, err := p.factor() // right-assoc
		if err != nil {
			return nil, err
		}
		return &BinaryExpr{position: pos, Op: "**", L: e, R: r}, nil
	}
	return e, nil
}

// unary parses an atom followed by call/attr/index trailers.
func (p *parser) unary() (Expr, error) {
	e, err := p.atom()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.atOp("("):
			call, err := p.callTrailer(e)
			if err != nil {
				return nil, err
			}
			e = call
		case p.atOp("."):
			pos := p.posHere()
			p.next()
			n, err := p.expectKind(NAME)
			if err != nil {
				return nil, err
			}
			e = &AttrExpr{position: pos, X: e, Name: n.Text}
		case p.atOp("["):
			pos := p.posHere()
			p.next()
			var lo, hi Expr
			isSlice := false
			if !p.atOp(":") {
				l, err := p.expr()
				if err != nil {
					return nil, err
				}
				lo = l
			}
			if p.acceptOp(":") {
				isSlice = true
				if !p.atOp("]") {
					h, err := p.expr()
					if err != nil {
						return nil, err
					}
					hi = h
				}
			}
			if err := p.expectOp("]"); err != nil {
				return nil, err
			}
			if isSlice {
				e = &SliceExpr{position: pos, X: e, Lo: lo, Hi: hi}
			} else {
				e = &IndexExpr{position: pos, X: e, Key: lo}
			}
		default:
			return e, nil
		}
	}
}

func (p *parser) callTrailer(fn Expr) (Expr, error) {
	pos := p.posHere()
	p.next() // (
	call := &CallExpr{position: pos, Fn: fn}
	for !p.atOp(")") {
		// keyword argument?
		if p.at(NAME) && p.toks[p.pos+1].Kind == OP && p.toks[p.pos+1].Text == "=" {
			name := p.next().Text
			p.next() // =
			v, err := p.expr()
			if err != nil {
				return nil, err
			}
			call.KwNames = append(call.KwNames, name)
			call.KwValues = append(call.KwValues, v)
		} else {
			a, err := p.expr()
			if err != nil {
				return nil, err
			}
			// generator expression in call position: f(x for y in z)
			if p.atKw("for") {
				comp, err := p.compTail(a)
				if err != nil {
					return nil, err
				}
				comp.IsGen = true
				a = comp
			}
			call.Args = append(call.Args, a)
		}
		if !p.acceptOp(",") {
			break
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return call, nil
}

// compTail parses `for target in iter [if cond]` after elt.
func (p *parser) compTail(elt Expr) (*CompExpr, error) {
	pos := p.posHere()
	p.next() // for
	target, err := p.targetList()
	if err != nil {
		return nil, err
	}
	if !p.acceptKw("in") {
		return nil, p.errf("expected 'in' in comprehension")
	}
	iter, err := p.orExpr()
	if err != nil {
		return nil, err
	}
	comp := &CompExpr{position: pos, Elt: elt, Target: target, Iter: iter}
	if p.acceptKw("if") {
		cond, err := p.orExpr()
		if err != nil {
			return nil, err
		}
		comp.Cond = cond
	}
	return comp, nil
}

func (p *parser) atom() (Expr, error) {
	t := p.cur()
	pos := position{t.Line, t.Col}
	switch t.Kind {
	case NAME:
		p.next()
		return &NameExpr{position: pos, Name: t.Text}, nil
	case NUMBER:
		p.next()
		text := strings.ReplaceAll(t.Text, "_", "")
		if strings.ContainsAny(text, ".eE") {
			f, err := strconv.ParseFloat(text, 64)
			if err != nil {
				return nil, &SyntaxError{Line: t.Line, Col: t.Col, Msg: "bad number: " + t.Text}
			}
			return &NumberExpr{position: pos, IsFloat: true, Float: f}, nil
		}
		i, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return nil, &SyntaxError{Line: t.Line, Col: t.Col, Msg: "bad number: " + t.Text}
		}
		return &NumberExpr{position: pos, Int: i}, nil
	case STRING:
		p.next()
		v := t.Text
		// adjacent string literal concatenation
		for p.at(STRING) {
			v += p.next().Text
		}
		return &StringExpr{position: pos, Value: v}, nil
	case KEYWORD:
		switch t.Text {
		case "True":
			p.next()
			return &BoolExpr{position: pos, Value: true}, nil
		case "False":
			p.next()
			return &BoolExpr{position: pos, Value: false}, nil
		case "None":
			p.next()
			return &NoneExpr{position: pos}, nil
		case "lambda":
			return p.lambda()
		case "not":
			return p.notExpr()
		}
	case OP:
		switch t.Text {
		case "(":
			p.next()
			if p.atOp(")") { // empty tuple
				p.next()
				return &TupleExpr{position: pos}, nil
			}
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			if p.atKw("for") { // parenthesized generator expression
				comp, err := p.compTail(e)
				if err != nil {
					return nil, err
				}
				comp.IsGen = true
				if err := p.expectOp(")"); err != nil {
					return nil, err
				}
				return comp, nil
			}
			if p.atOp(",") { // tuple
				items := []Expr{e}
				for p.acceptOp(",") {
					if p.atOp(")") {
						break
					}
					it, err := p.expr()
					if err != nil {
						return nil, err
					}
					items = append(items, it)
				}
				if err := p.expectOp(")"); err != nil {
					return nil, err
				}
				return &TupleExpr{position: pos, Items: items}, nil
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return e, nil
		case "[":
			p.next()
			if p.atOp("]") {
				p.next()
				return &ListExpr{position: pos}, nil
			}
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			if p.atKw("for") { // list comprehension
				comp, err := p.compTail(e)
				if err != nil {
					return nil, err
				}
				if err := p.expectOp("]"); err != nil {
					return nil, err
				}
				return comp, nil
			}
			items := []Expr{e}
			for p.acceptOp(",") {
				if p.atOp("]") {
					break
				}
				it, err := p.expr()
				if err != nil {
					return nil, err
				}
				items = append(items, it)
			}
			if err := p.expectOp("]"); err != nil {
				return nil, err
			}
			return &ListExpr{position: pos, Items: items}, nil
		case "{":
			p.next()
			if p.atOp("}") {
				p.next()
				return &DictExpr{position: pos}, nil
			}
			first, err := p.expr()
			if err != nil {
				return nil, err
			}
			if p.atOp(":") { // dict
				p.next()
				v, err := p.expr()
				if err != nil {
					return nil, err
				}
				if p.atKw("for") { // dict comprehension; the key is Elt
					comp, err := p.compTail(first)
					if err != nil {
						return nil, err
					}
					comp.IsDict = true
					comp.Val = v
					if err := p.expectOp("}"); err != nil {
						return nil, err
					}
					return comp, nil
				}
				d := &DictExpr{position: pos, Keys: []Expr{first}, Values: []Expr{v}}
				for p.acceptOp(",") {
					if p.atOp("}") {
						break
					}
					k, err := p.expr()
					if err != nil {
						return nil, err
					}
					if err := p.expectOp(":"); err != nil {
						return nil, err
					}
					vv, err := p.expr()
					if err != nil {
						return nil, err
					}
					d.Keys = append(d.Keys, k)
					d.Values = append(d.Values, vv)
				}
				if err := p.expectOp("}"); err != nil {
					return nil, err
				}
				return d, nil
			}
			if p.atKw("for") { // set comprehension
				comp, err := p.compTail(first)
				if err != nil {
					return nil, err
				}
				comp.IsSet = true
				if err := p.expectOp("}"); err != nil {
					return nil, err
				}
				return comp, nil
			}
			// set display
			items := []Expr{first}
			for p.acceptOp(",") {
				if p.atOp("}") {
					break
				}
				it, err := p.expr()
				if err != nil {
					return nil, err
				}
				items = append(items, it)
			}
			if err := p.expectOp("}"); err != nil {
				return nil, err
			}
			return &SetExpr{position: pos, Items: items}, nil
		}
	}
	return nil, p.errf("unexpected token %s", t)
}
