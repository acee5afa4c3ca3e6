// Package parser implements a lexer and recursive-descent parser for the SQL
// subset used by the paper: SELECT blocks with arbitrary scalar expressions,
// joins expressed in WHERE, aggregate functions (including DISTINCT
// arguments), HAVING, scalar subqueries, derived tables in FROM, and GROUP BY
// clauses containing plain expressions, ROLLUP, CUBE and GROUPING SETS.
package parser

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/sqltypes"
)

// TokenKind classifies lexical tokens.
type TokenKind uint8

const (
	// TokEOF terminates the stream.
	TokEOF TokenKind = iota
	// TokIdent is an unquoted or quoted identifier (lowercased when unquoted).
	TokIdent
	// TokKeyword is a reserved word (uppercased).
	TokKeyword
	// TokNumber is an integer or decimal literal.
	TokNumber
	// TokString is a single-quoted string literal (quotes stripped).
	TokString
	// TokOp is an operator or punctuation token.
	TokOp
)

// Token is one lexical token with its source position (byte offset). Param
// numbers the number and string literals of one source text in token order,
// from 1; it is 0 on every other token.
type Token struct {
	Kind  TokenKind
	Text  string
	Pos   int
	Param int
}

func (t Token) String() string {
	switch t.Kind {
	case TokEOF:
		return "<eof>"
	case TokString:
		return "'" + t.Text + "'"
	default:
		return t.Text
	}
}

// keywords maps each reserved word to itself, so that a lookup by a converted
// byte slice hands back the string without allocating one.
var keywords = func() map[string]string {
	m := map[string]string{}
	for _, k := range []string{
		"SELECT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "AS", "AND", "OR",
		"NOT", "NULL", "IS", "IN", "BETWEEN", "DISTINCT", "ALL", "ROLLUP", "CUBE",
		"GROUPING", "SETS", "ORDER", "ASC", "DESC", "UNION", "DATE", "CASE",
		"WHEN", "THEN", "ELSE", "END", "EXISTS", "LIKE", "LIMIT", "TRUE", "FALSE",
	} {
		m[k] = k
	}
	return m
}()

type lexer struct {
	src    string
	pos    int
	params int // literal tokens handed out so far
}

// Lex tokenizes the input. Unquoted identifiers are folded to lower case and
// keywords to upper case, matching common SQL case-insensitivity.
func Lex(src string) ([]Token, error) {
	l := &lexer{src: src}
	var toks []Token
	for {
		tok, err := l.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, tok)
		if tok.Kind == TokEOF {
			return toks, nil
		}
	}
}

// Template lexes src once into its statement template and its literal vector:
// the tokens Lex returns, one space apart, with every number and string
// literal replaced by a typed slot (?int, ?float, ?string) and its value
// appended to the vector, so that lits[tok.Param-1] is the value of literal
// token tok. Two texts with one template differ at most in those values:
// comments and white space are gone, keywords and unquoted identifiers are
// case-folded, and a quoted identifier keeps its quotes and its case, so
// "Foo", "foo" and "a b" stay apart from one another and from a b. NULL, TRUE,
// FALSE and the DATE keyword are template text. A text that does not lex, or
// holds a number no literal can carry, is an error here as it is in Parse.
func Template(src string) (string, []sqltypes.Value, error) {
	l := &lexer{src: src}
	// Sized so that the usual statement grows neither: one space per token
	// and a slot name per literal make the template longer than the text.
	buf := make([]byte, 0, 2*len(src))
	lits := make([]sqltypes.Value, 0, 4)
	for {
		tok, err := l.next()
		if err != nil {
			return "", nil, err
		}
		if tok.Kind == TokEOF {
			return string(buf), lits, nil
		}
		if len(buf) > 0 {
			buf = append(buf, ' ')
		}
		switch {
		case tok.Param > 0:
			v, err := tok.literal()
			if err != nil {
				return "", nil, err
			}
			lits = append(lits, v)
			switch v.Kind() {
			case sqltypes.KindInt:
				buf = append(buf, "?int"...)
			case sqltypes.KindFloat:
				buf = append(buf, "?float"...)
			default:
				buf = append(buf, "?string"...)
			}
		case tok.Kind == TokIdent && src[tok.Pos] == '"':
			buf = append(append(append(buf, '"'), tok.Text...), '"')
		default:
			buf = append(buf, tok.Text...)
		}
	}
}

// literal converts a number or string token to its value: a number with a
// decimal point is a float, any other an int64.
func (t Token) literal() (sqltypes.Value, error) {
	switch {
	case t.Kind == TokString:
		return sqltypes.NewString(t.Text), nil
	case strings.Contains(t.Text, "."):
		f, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			return sqltypes.Null, fmt.Errorf("bad numeric literal %q: %v", t.Text, err)
		}
		return sqltypes.NewFloat(f), nil
	default:
		i, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return sqltypes.Null, fmt.Errorf("bad integer literal %q: %v", t.Text, err)
		}
		return sqltypes.NewInt(i), nil
	}
}

func (l *lexer) next() (Token, error) {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			l.pos++
			continue
		}
		// -- line comments
		if c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-' {
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
			continue
		}
		break
	}
	if l.pos >= len(l.src) {
		return Token{Kind: TokEOF, Pos: l.pos}, nil
	}
	start := l.pos
	c := l.src[l.pos]
	// Decode a full rune: treating bytes as runes would misread a stray
	// 0xEA as 'ê', admit it into an identifier, and produce a token that the
	// printer cannot round-trip.
	r, rlen := utf8.DecodeRuneInString(l.src[l.pos:])
	if r == utf8.RuneError && rlen == 1 {
		return Token{}, fmt.Errorf("parser: invalid UTF-8 byte %#02x at offset %d", c, start)
	}

	switch {
	case isIdentStart(r):
		l.pos += rlen
		for l.pos < len(l.src) {
			r2, n := utf8.DecodeRuneInString(l.src[l.pos:])
			if r2 == utf8.RuneError && n <= 1 {
				break
			}
			if !isIdentPart(r2) {
				break
			}
			l.pos += n
		}
		word := l.src[start:l.pos]
		if kw, ok := keyword(word); ok {
			return Token{Kind: TokKeyword, Text: kw, Pos: start}, nil
		}
		return Token{Kind: TokIdent, Text: strings.ToLower(word), Pos: start}, nil

	case c >= '0' && c <= '9':
		seenDot := false
		for l.pos < len(l.src) {
			ch := l.src[l.pos]
			if ch >= '0' && ch <= '9' {
				l.pos++
				continue
			}
			if ch == '.' && !seenDot && l.pos+1 < len(l.src) && l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9' {
				seenDot = true
				l.pos++
				continue
			}
			break
		}
		l.params++
		return Token{Kind: TokNumber, Text: l.src[start:l.pos], Pos: start, Param: l.params}, nil

	case c == '\'':
		l.pos++
		var sb strings.Builder
		for {
			if l.pos >= len(l.src) {
				return Token{}, fmt.Errorf("parser: unterminated string literal at offset %d", start)
			}
			ch := l.src[l.pos]
			if ch == '\'' {
				if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
					sb.WriteByte('\'')
					l.pos += 2
					continue
				}
				l.pos++
				l.params++
				return Token{Kind: TokString, Text: sb.String(), Pos: start, Param: l.params}, nil
			}
			sb.WriteByte(ch)
			l.pos++
		}

	case c == '"':
		// Quoted identifier: preserved case.
		l.pos++
		end := strings.IndexByte(l.src[l.pos:], '"')
		if end < 0 {
			return Token{}, fmt.Errorf("parser: unterminated quoted identifier at offset %d", start)
		}
		text := l.src[l.pos : l.pos+end]
		l.pos += end + 1
		return Token{Kind: TokIdent, Text: text, Pos: start}, nil

	default:
		// Multi-char operators first.
		two := ""
		if l.pos+1 < len(l.src) {
			two = l.src[l.pos : l.pos+2]
		}
		switch two {
		case "<>", "!=", "<=", ">=", "||":
			l.pos += 2
			if two == "!=" {
				two = "<>"
			}
			return Token{Kind: TokOp, Text: two, Pos: start}, nil
		}
		switch c {
		case '+', '-', '*', '/', '%', '(', ')', ',', '=', '<', '>', '.', ';':
			l.pos++
			return Token{Kind: TokOp, Text: l.src[start:l.pos], Pos: start}, nil
		}
		return Token{}, fmt.Errorf("parser: unexpected character %q at offset %d", c, start)
	}
}

// keyword returns the upper-case spelling of word when it is a reserved word.
// The lexer runs on every statement the plan cache answers, so the fold goes
// through a stack buffer: a statement in either case allocates nothing here.
func keyword(word string) (string, bool) {
	var up [8]byte // len("DISTINCT"), the longest keyword
	if len(word) > len(up) {
		return "", false
	}
	for i := 0; i < len(word); i++ {
		c := word[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		up[i] = c
	}
	kw, ok := keywords[string(up[:len(word)])]
	return kw, ok
}

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r)
}
