package hcl

import (
	"strconv"
	"strings"
)

// Parse parses CCL source into a File. It always returns a non-nil file so
// that callers can surface partial results next to diagnostics.
func Parse(filename, src string) (*File, Diagnostics) {
	toks, diags := Lex(filename, src)
	p := &parser{toks: toks, filename: filename, diags: diags}
	body := p.parseBody(TokenEOF)
	return &File{Filename: filename, Body: body}, p.diags
}

// ParseExpression parses a standalone expression, used by tools that accept
// expression snippets (e.g. policy conditions).
func ParseExpression(filename, src string) (Expression, Diagnostics) {
	toks, diags := Lex(filename, src)
	p := &parser{toks: toks, filename: filename, diags: diags}
	p.skipNewlines()
	expr := p.parseExpr()
	p.skipNewlines()
	if p.peek().Type != TokenEOF {
		p.errorf(p.peek().Range, "extra characters after expression")
	}
	return expr, p.diags
}

type parser struct {
	toks     []Token
	pos      int
	filename string
	diags    Diagnostics
}

func (p *parser) peek() Token { return p.toks[p.pos] }
func (p *parser) peekN(n int) Token {
	if p.pos+n >= len(p.toks) {
		return p.toks[len(p.toks)-1]
	}
	return p.toks[p.pos+n]
}

func (p *parser) next() Token {
	t := p.toks[p.pos]
	if t.Type != TokenEOF {
		p.pos++
	}
	return t
}

func (p *parser) accept(tt TokenType) (Token, bool) {
	if p.peek().Type == tt {
		return p.next(), true
	}
	return Token{}, false
}

func (p *parser) expect(tt TokenType, context string) (Token, bool) {
	if t, ok := p.accept(tt); ok {
		return t, true
	}
	got := p.peek()
	p.errorf(got.Range, "expected %s %s, found %s", tt, context, got.Type)
	return got, false
}

func (p *parser) errorf(rng Range, format string, args ...any) {
	p.diags = p.diags.Append(Errorf(rng, format, args...))
}

func (p *parser) skipNewlines() {
	for p.peek().Type == TokenNewline {
		p.next()
	}
}

// recoverTo skips tokens until one of the given types (or EOF) is at the
// cursor, so a single syntax error does not cascade.
func (p *parser) recoverTo(types ...TokenType) {
	for {
		t := p.peek()
		if t.Type == TokenEOF {
			return
		}
		for _, tt := range types {
			if t.Type == tt {
				return
			}
		}
		p.next()
	}
}

// parseBody parses attributes and blocks until the terminator token.
func (p *parser) parseBody(end TokenType) *Body {
	body := &Body{}
	start := p.peek().Range
	for {
		p.skipNewlines()
		t := p.peek()
		if t.Type == end || t.Type == TokenEOF {
			if t.Type != end {
				p.errorf(t.Range, "unexpected %s; expected %s", t.Type, end)
			}
			body.Rng = RangeBetween(start, t.Range)
			return body
		}
		if t.Type != TokenIdent {
			p.errorf(t.Range, "expected attribute name or block type, found %s", t.Type)
			p.recoverTo(TokenNewline, end)
			continue
		}
		ident := p.next()
		switch p.peek().Type {
		case TokenAssign:
			p.next()
			expr := p.parseExpr()
			body.Attributes = append(body.Attributes, &Attribute{
				Name:      ident.Text,
				Expr:      expr,
				NameRange: ident.Range,
				Rng:       RangeBetween(ident.Range, expr.Range()),
			})
			if nt := p.peek(); nt.Type != TokenNewline && nt.Type != end && nt.Type != TokenEOF {
				p.errorf(nt.Range, "expected a newline after attribute %q, found %s", ident.Text, nt.Type)
				p.recoverTo(TokenNewline, end)
			}
		case TokenString, TokenIdent, TokenLBrace:
			blk := p.parseBlockRest(ident)
			if blk != nil {
				body.Blocks = append(body.Blocks, blk)
			}
		default:
			p.errorf(p.peek().Range,
				"expected %q (to define attribute %q) or a block body, found %s",
				"=", ident.Text, p.peek().Type)
			p.recoverTo(TokenNewline, end)
		}
	}
}

// parseBlockRest parses the labels and body of a block whose type keyword
// has already been consumed.
func (p *parser) parseBlockRest(typeTok Token) *Block {
	blk := &Block{Type: typeTok.Text, TypeRange: typeTok.Range}
	for {
		switch t := p.peek(); t.Type {
		case TokenString:
			p.next()
			label, ok := unquoteSimple(t.Text)
			if !ok {
				p.errorf(t.Range, "block label must be a plain quoted string without interpolation")
			}
			blk.Labels = append(blk.Labels, label)
			blk.LabelRanges = append(blk.LabelRanges, t.Range)
		case TokenIdent:
			p.next()
			blk.Labels = append(blk.Labels, t.Text)
			blk.LabelRanges = append(blk.LabelRanges, t.Range)
		case TokenLBrace:
			p.next()
			if nt := p.peek(); nt.Type != TokenNewline && nt.Type != TokenRBrace {
				// Single-line block bodies are accepted: attr parsing handles
				// the missing newline after "{" naturally.
				_ = nt
			}
			blk.Body = p.parseBody(TokenRBrace)
			endTok, _ := p.expect(TokenRBrace, "to close block")
			blk.Rng = RangeBetween(typeTok.Range, endTok.Range)
			return blk
		default:
			p.errorf(t.Range, "expected block label or %q for block %q, found %s",
				"{", blk.Type, t.Type)
			p.recoverTo(TokenNewline, TokenRBrace)
			return nil
		}
	}
}

// --- Expressions ---------------------------------------------------------

func (p *parser) parseExpr() Expression {
	return p.parseConditional()
}

func (p *parser) parseConditional() Expression {
	cond := p.parseBinary(0)
	if _, ok := p.accept(TokenQuestion); !ok {
		return cond
	}
	trueExpr := p.parseExpr()
	p.expect(TokenColon, "in conditional expression")
	falseExpr := p.parseExpr()
	return &ConditionalExpr{
		Cond: cond, True: trueExpr, False: falseExpr,
		Rng: RangeBetween(cond.Range(), falseExpr.Range()),
	}
}

type binaryLevel struct {
	toks map[TokenType]BinaryOp
}

// Precedence levels from loosest to tightest.
var binaryLevels = []binaryLevel{
	{toks: map[TokenType]BinaryOp{TokenOr: OpOr}},
	{toks: map[TokenType]BinaryOp{TokenAnd: OpAnd}},
	{toks: map[TokenType]BinaryOp{TokenEq: OpEq, TokenNotEq: OpNotEq}},
	{toks: map[TokenType]BinaryOp{TokenLT: OpLT, TokenGT: OpGT, TokenLTE: OpLTE, TokenGTE: OpGTE}},
	{toks: map[TokenType]BinaryOp{TokenPlus: OpAdd, TokenMinus: OpSub}},
	{toks: map[TokenType]BinaryOp{TokenStar: OpMul, TokenSlash: OpDiv, TokenPercent: OpMod}},
}

func (p *parser) parseBinary(level int) Expression {
	if level >= len(binaryLevels) {
		return p.parseUnary()
	}
	lhs := p.parseBinary(level + 1)
	for {
		op, ok := binaryLevels[level].toks[p.peek().Type]
		if !ok {
			return lhs
		}
		p.next()
		rhs := p.parseBinary(level + 1)
		lhs = &BinaryExpr{Op: op, LHS: lhs, RHS: rhs, Rng: RangeBetween(lhs.Range(), rhs.Range())}
	}
}

func (p *parser) parseUnary() Expression {
	switch t := p.peek(); t.Type {
	case TokenMinus:
		p.next()
		op := p.parseUnary()
		return &UnaryExpr{Op: OpNegate, Operand: op, Rng: RangeBetween(t.Range, op.Range())}
	case TokenBang:
		p.next()
		op := p.parseUnary()
		return &UnaryExpr{Op: OpNot, Operand: op, Rng: RangeBetween(t.Range, op.Range())}
	}
	return p.parsePostfix()
}

// parsePostfix parses a primary expression followed by any number of
// attribute accesses, index operations, and splats.
func (p *parser) parsePostfix() Expression {
	expr := p.parsePrimary()
	for {
		switch p.peek().Type {
		case TokenDot:
			p.next()
			nameTok := p.peek()
			switch nameTok.Type {
			case TokenIdent:
				p.next()
				expr = extendTraversal(expr, TraverseAttr{Name: nameTok.Text}, nameTok.Range)
			case TokenNumber:
				p.next()
				idx, err := strconv.Atoi(nameTok.Text)
				if err != nil {
					p.errorf(nameTok.Range, "invalid index %q after %q", nameTok.Text, ".")
					continue
				}
				expr = extendTraversal(expr, TraverseIndex{Key: idx}, nameTok.Range)
			case TokenStar:
				p.next()
				expr = p.parseSplatRest(expr, nameTok.Range)
			default:
				p.errorf(nameTok.Range, "expected attribute name after %q, found %s", ".", nameTok.Type)
				return expr
			}
		case TokenLBracket:
			open := p.next()
			if star, ok := p.accept(TokenStar); ok {
				endTok, _ := p.expect(TokenRBracket, "to close splat")
				_ = star
				expr = p.parseSplatRest(expr, RangeBetween(open.Range, endTok.Range))
				continue
			}
			key := p.parseExpr()
			endTok, _ := p.expect(TokenRBracket, "to close index")
			rng := RangeBetween(expr.Range(), endTok.Range)
			// Static keys extend a traversal, keeping the reference analyzable.
			if lit, ok := key.(*LiteralExpr); ok {
				switch v := lit.Val.(type) {
				case string:
					expr = extendTraversal(expr, TraverseIndex{Key: v}, rng)
					continue
				case float64:
					if v == float64(int(v)) {
						expr = extendTraversal(expr, TraverseIndex{Key: int(v)}, rng)
						continue
					}
				}
			}
			expr = &IndexExpr{Collection: expr, Key: key, Rng: rng}
		default:
			return expr
		}
	}
}

// parseSplatRest parses the traversal that follows a [*] or .* splat marker.
func (p *parser) parseSplatRest(source Expression, markerRng Range) Expression {
	splat := &SplatExpr{Source: source, Rng: RangeBetween(source.Range(), markerRng)}
	for {
		if p.peek().Type != TokenDot {
			return splat
		}
		p.next()
		nameTok := p.peek()
		if nameTok.Type != TokenIdent {
			p.errorf(nameTok.Range, "expected attribute name after %q in splat, found %s", ".", nameTok.Type)
			return splat
		}
		p.next()
		splat.Each = append(splat.Each, TraverseAttr{Name: nameTok.Text})
		splat.Rng = RangeBetween(splat.Rng, nameTok.Range)
	}
}

// extendTraversal attaches a step to an expression, preserving pure scope
// traversals (ident chains) as ScopeTraversalExpr for dependency analysis.
func extendTraversal(base Expression, step Traverser, stepRng Range) Expression {
	rng := RangeBetween(base.Range(), stepRng)
	switch b := base.(type) {
	case *ScopeTraversalExpr:
		tr := make(Traversal, len(b.Traversal), len(b.Traversal)+1)
		copy(tr, b.Traversal)
		return &ScopeTraversalExpr{Traversal: append(tr, step), Rng: rng}
	case *RelativeTraversalExpr:
		tr := make(Traversal, len(b.Traversal), len(b.Traversal)+1)
		copy(tr, b.Traversal)
		return &RelativeTraversalExpr{Source: b.Source, Traversal: append(tr, step), Rng: rng}
	default:
		return &RelativeTraversalExpr{Source: base, Traversal: Traversal{step}, Rng: rng}
	}
}

func (p *parser) parsePrimary() Expression {
	t := p.peek()
	switch t.Type {
	case TokenNumber:
		p.next()
		f, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			p.errorf(t.Range, "invalid number literal %q", t.Text)
			f = 0
		}
		return &LiteralExpr{Val: f, Rng: t.Range}
	case TokenString:
		p.next()
		return p.parseTemplateToken(t)
	case TokenHeredoc:
		p.next()
		return p.parseHeredocToken(t)
	case TokenIdent:
		switch t.Text {
		case "true":
			p.next()
			return &LiteralExpr{Val: true, Rng: t.Range}
		case "false":
			p.next()
			return &LiteralExpr{Val: false, Rng: t.Range}
		case "null":
			p.next()
			return &LiteralExpr{Val: nil, Rng: t.Range}
		}
		p.next()
		if p.peek().Type == TokenLParen {
			return p.parseCallRest(t)
		}
		return &ScopeTraversalExpr{
			Traversal: Traversal{TraverseRoot{Name: t.Text}},
			Rng:       t.Range,
		}
	case TokenLParen:
		p.next()
		inner := p.parseExpr()
		p.expect(TokenRParen, "to close parenthesized expression")
		return inner
	case TokenLBracket:
		return p.parseTupleOrForList()
	case TokenLBrace:
		return p.parseObjectOrForObject()
	default:
		p.errorf(t.Range, "expected an expression, found %s", t.Type)
		p.next()
		return &LiteralExpr{Val: nil, Rng: t.Range}
	}
}

func (p *parser) parseCallRest(nameTok Token) Expression {
	open, _ := p.expect(TokenLParen, "to open function call")
	_ = open
	call := &FunctionCallExpr{Name: nameTok.Text, NameRange: nameTok.Range}
	for {
		if endTok, ok := p.accept(TokenRParen); ok {
			call.Rng = RangeBetween(nameTok.Range, endTok.Range)
			return call
		}
		arg := p.parseExpr()
		call.Args = append(call.Args, arg)
		if _, ok := p.accept(TokenEllipsis); ok {
			call.ExpandFinal = true
			endTok, _ := p.expect(TokenRParen, "after expansion argument")
			call.Rng = RangeBetween(nameTok.Range, endTok.Range)
			return call
		}
		if _, ok := p.accept(TokenComma); ok {
			continue
		}
		endTok, ok := p.expect(TokenRParen, "to close function call")
		if !ok {
			p.recoverTo(TokenRParen, TokenNewline)
			p.accept(TokenRParen)
		}
		call.Rng = RangeBetween(nameTok.Range, endTok.Range)
		return call
	}
}

func (p *parser) parseTupleOrForList() Expression {
	open := p.next() // '['
	if t := p.peek(); t.Type == TokenIdent && t.Text == "for" {
		return p.parseForRest(open, TokenRBracket)
	}
	tuple := &TupleExpr{}
	for {
		if endTok, ok := p.accept(TokenRBracket); ok {
			tuple.Rng = RangeBetween(open.Range, endTok.Range)
			return tuple
		}
		item := p.parseExpr()
		tuple.Items = append(tuple.Items, item)
		if _, ok := p.accept(TokenComma); ok {
			continue
		}
		endTok, ok := p.expect(TokenRBracket, "to close list")
		if !ok {
			p.recoverTo(TokenRBracket, TokenNewline)
			p.accept(TokenRBracket)
		}
		tuple.Rng = RangeBetween(open.Range, endTok.Range)
		return tuple
	}
}

func (p *parser) parseObjectOrForObject() Expression {
	open := p.next() // '{'
	p.skipNewlines()
	if t := p.peek(); t.Type == TokenIdent && t.Text == "for" {
		return p.parseForRest(open, TokenRBrace)
	}
	obj := &ObjectExpr{}
	for {
		p.skipNewlines()
		if endTok, ok := p.accept(TokenRBrace); ok {
			obj.Rng = RangeBetween(open.Range, endTok.Range)
			return obj
		}
		// The recovery paths below continue without consuming a token when
		// they stop at EOF, so end of input must end the loop here.
		if t := p.peek(); t.Type == TokenEOF {
			p.errorf(t.Range, "expected %s to close object, found %s", TokenRBrace, t.Type)
			obj.Rng = RangeBetween(open.Range, t.Range)
			return obj
		}
		var key Expression
		kt := p.peek()
		switch kt.Type {
		case TokenIdent:
			p.next()
			key = &LiteralExpr{Val: kt.Text, Rng: kt.Range}
		case TokenString:
			p.next()
			key = p.parseTemplateToken(kt)
		case TokenLParen:
			p.next()
			key = p.parseExpr()
			p.expect(TokenRParen, "to close computed object key")
		default:
			p.errorf(kt.Range, "expected object key, found %s", kt.Type)
			p.recoverTo(TokenRBrace, TokenNewline)
			continue
		}
		if _, ok := p.accept(TokenAssign); !ok {
			if _, ok := p.accept(TokenColon); !ok {
				p.errorf(p.peek().Range, `expected "=" or ":" after object key`)
				p.recoverTo(TokenRBrace, TokenNewline)
				continue
			}
		}
		val := p.parseExpr()
		obj.Items = append(obj.Items, ObjectItem{Key: key, Value: val})
		if _, ok := p.accept(TokenComma); ok {
			continue
		}
		if p.peek().Type == TokenNewline {
			continue
		}
		endTok, ok := p.expect(TokenRBrace, "to close object")
		if !ok {
			p.recoverTo(TokenRBrace)
			p.accept(TokenRBrace)
		}
		obj.Rng = RangeBetween(open.Range, endTok.Range)
		return obj
	}
}

// parseForRest parses a comprehension after its opening bracket; the "for"
// keyword is at the cursor.
func (p *parser) parseForRest(open Token, end TokenType) Expression {
	p.next() // "for"
	fe := &ForExpr{}
	v1, ok := p.expect(TokenIdent, "as comprehension variable")
	if !ok {
		p.recoverTo(end)
		p.accept(end)
		return &LiteralExpr{Val: nil, Rng: open.Range}
	}
	fe.ValVar = v1.Text
	if _, ok := p.accept(TokenComma); ok {
		v2, _ := p.expect(TokenIdent, "as comprehension value variable")
		fe.KeyVar, fe.ValVar = v1.Text, v2.Text
	}
	inTok := p.peek()
	if inTok.Type != TokenIdent || inTok.Text != "in" {
		p.errorf(inTok.Range, `expected "in" in comprehension, found %s`, inTok.Type)
	} else {
		p.next()
	}
	fe.Coll = p.parseExpr()
	p.expect(TokenColon, "in comprehension")
	first := p.parseExpr()
	if _, ok := p.accept(TokenArrow); ok {
		if end != TokenRBrace {
			p.errorf(p.peek().Range, `"=>" is only valid in object comprehensions`)
		}
		fe.KeyExpr = first
		fe.ValExpr = p.parseExpr()
	} else {
		fe.ValExpr = first
	}
	if t := p.peek(); t.Type == TokenIdent && t.Text == "if" {
		p.next()
		fe.CondExpr = p.parseExpr()
	}
	endTok, ok := p.expect(end, "to close comprehension")
	if !ok {
		p.recoverTo(end)
		p.accept(end)
	}
	fe.Rng = RangeBetween(open.Range, endTok.Range)
	return fe
}

// --- Templates -----------------------------------------------------------

// unquoteSimple unquotes a string token that must not contain interpolation,
// used for block labels.
func unquoteSimple(raw string) (string, bool) {
	if strings.Contains(raw, "${") {
		return strings.Trim(raw, `"`), false
	}
	s, err := unescape(raw[1 : len(raw)-1])
	if err != nil {
		return strings.Trim(raw, `"`), false
	}
	return s, true
}

func unescape(s string) (string, error) {
	if !strings.ContainsRune(s, '\\') {
		return s, nil
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c != '\\' {
			b.WriteByte(c)
			continue
		}
		i++
		if i >= len(s) {
			return b.String(), &Diagnostic{Severity: DiagError, Summary: "trailing backslash in string"}
		}
		switch s[i] {
		case 'n':
			b.WriteByte('\n')
		case 't':
			b.WriteByte('\t')
		case 'r':
			b.WriteByte('\r')
		case '"':
			b.WriteByte('"')
		case '\\':
			b.WriteByte('\\')
		case '$':
			b.WriteByte('$')
		default:
			b.WriteByte('\\')
			b.WriteByte(s[i])
		}
	}
	return b.String(), nil
}

// parseTemplateToken turns a quoted-string token into either a LiteralExpr
// (no interpolation) or a TemplateExpr.
func (p *parser) parseTemplateToken(tok Token) Expression {
	inner := tok.Text[1 : len(tok.Text)-1]
	innerStart := tok.Range.Start
	innerStart.Byte++
	innerStart.Column++
	return p.parseTemplate(inner, innerStart, tok.Range, true)
}

// parseHeredocToken turns a heredoc token into a template expression. The
// heredoc body runs from after the first newline to the start of the line
// holding the closing tag. A trailing newline is preserved.
func (p *parser) parseHeredocToken(tok Token) Expression {
	raw := tok.Text
	nl := strings.IndexByte(raw, '\n')
	if nl < 0 {
		return &LiteralExpr{Val: "", Rng: tok.Range}
	}
	body := raw[nl+1:]
	// Drop the final line (the closing tag).
	lastNL := strings.LastIndexByte(strings.TrimRight(body, "\n \t"), '\n')
	if lastNL < 0 {
		body = ""
	} else {
		body = body[:lastNL+1]
	}
	start := tok.Range.Start
	start.Byte += nl + 1
	start.Line++
	start.Column = 1
	return p.parseTemplate(body, start, tok.Range, false)
}

// parseTemplate splits raw template text into literal and interpolated parts.
// escapes controls whether backslash escapes are processed (quoted strings:
// yes; heredocs: no). start is the source position of raw[0].
func (p *parser) parseTemplate(raw string, start Pos, whole Range, escapes bool) Expression {
	var parts []Expression
	var lit strings.Builder

	// posAt maps a byte index within raw to an absolute source position.
	posAt := func(i int) Pos {
		out := start
		for j := 0; j < i; j++ {
			if raw[j] == '\n' {
				out.Line++
				out.Column = 1
			} else {
				out.Column++
			}
			out.Byte++
		}
		return out
	}

	litStartIdx := 0
	i := 0
	flushLit := func(endIdx int) {
		if lit.Len() == 0 {
			return
		}
		s := lit.String()
		if escapes {
			if un, err := unescape(s); err == nil {
				s = un
			}
		}
		parts = append(parts, &LiteralExpr{
			Val: s,
			Rng: Range{Filename: whole.Filename, Start: posAt(litStartIdx), End: posAt(endIdx)},
		})
		lit.Reset()
	}

	for i < len(raw) {
		if escapes && raw[i] == '\\' && i+1 < len(raw) {
			lit.WriteByte(raw[i])
			lit.WriteByte(raw[i+1])
			i += 2
			continue
		}
		if strings.HasPrefix(raw[i:], "$${") {
			lit.WriteString("${")
			i += 3
			continue
		}
		if strings.HasPrefix(raw[i:], "${") {
			flushLit(i)
			markerStart := i
			i += 2
			exprStart := i
			depth := 1
			for i < len(raw) && depth > 0 {
				switch raw[i] {
				case '{':
					depth++
				case '}':
					depth--
					if depth == 0 {
						continue // leave i at the closing brace
					}
				case '"':
					i++
					for i < len(raw) && raw[i] != '"' {
						if raw[i] == '\\' && i+1 < len(raw) {
							i++
						}
						i++
					}
				}
				if depth > 0 {
					i++
				}
			}
			if depth > 0 {
				p.errorf(whole, "unterminated interpolation sequence")
				break
			}
			exprText := raw[exprStart:i]
			sub := subParser(p.filename, exprText, posAt(exprStart))
			expr := sub.parseExpr()
			sub.skipNewlines()
			if sub.peek().Type != TokenEOF {
				sub.errorf(sub.peek().Range, "extra characters in interpolation")
			}
			p.diags = p.diags.Extend(sub.diags)
			i++ // consume '}'
			exprRng := Range{Filename: whole.Filename, Start: posAt(markerStart), End: posAt(i)}
			parts = append(parts, withRange(expr, exprRng))
			litStartIdx = i
			continue
		}
		lit.WriteByte(raw[i])
		i++
	}
	flushLit(i)

	switch len(parts) {
	case 0:
		return &LiteralExpr{Val: "", Rng: whole}
	case 1:
		if l, ok := parts[0].(*LiteralExpr); ok {
			return &LiteralExpr{Val: l.Val, Rng: whole}
		}
	}
	return &TemplateExpr{Parts: parts, Rng: whole}
}

// subParser builds a parser over an expression substring, offsetting token
// ranges so diagnostics point into the original file.
func subParser(filename, src string, at Pos) *parser {
	toks, diags := Lex(filename, src)
	for i := range toks {
		toks[i].Range = offsetRange(toks[i].Range, at)
	}
	for _, d := range diags {
		d.Subject = offsetRange(d.Subject, at)
	}
	return &parser{toks: toks, filename: filename, diags: diags}
}

func offsetRange(r Range, at Pos) Range {
	r.Start = offsetPos(r.Start, at)
	r.End = offsetPos(r.End, at)
	return r
}

func offsetPos(p Pos, at Pos) Pos {
	out := p
	out.Byte += at.Byte
	if p.Line == 1 {
		out.Line = at.Line
		out.Column = at.Column + p.Column - 1
	} else {
		out.Line = at.Line + p.Line - 1
	}
	return out
}

// withRange rewraps an expression so its reported range covers the whole
// interpolation sequence including the "${" and "}" markers.
func withRange(e Expression, rng Range) Expression {
	switch t := e.(type) {
	case *ScopeTraversalExpr:
		t.Rng = rng
	case *FunctionCallExpr:
		t.Rng = rng
	case *LiteralExpr:
		t.Rng = rng
	}
	return e
}
