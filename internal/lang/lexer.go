package lang

import (
	"fmt"
	"strconv"
)

// Lexer tokenizes a source string. Comments run from '#' to end of line.
// Newlines are significant (they terminate statements).
//
// Next allocates nothing on success (TestLexerZeroAllocs): token text is
// sliced out of the source, and keywords and punctuation are recognized by
// switch statements.
type Lexer struct {
	src  string
	off  int
	line int
	col  int
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

// keyword returns the token kind of an identifier-shaped word: a keyword's
// kind, or TokIdent.
func keyword(text string) TokKind {
	switch text {
	case "for", "do": // "do" is the Fortran flavour
		return TokFor
	case "to":
		return TokTo
	case "step":
		return TokStep
	case "end", "endfor":
		return TokEnd
	case "read":
		return TokRead
	case "program":
		return TokProgram
	}
	return TokIdent
}

func (l *Lexer) peekByte() (byte, bool) {
	if l.off >= len(l.src) {
		return 0, false
	}
	return l.src[l.off], true
}

func (l *Lexer) advance() byte {
	c := l.src[l.off]
	l.off++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

// Next returns the next token. Consecutive newlines are folded into one.
func (l *Lexer) Next() (Token, error) {
	for {
		c, ok := l.peekByte()
		if !ok {
			return Token{Kind: TokEOF, Pos: l.pos()}, nil
		}
		switch {
		case c == '#':
			for {
				c, ok := l.peekByte()
				if !ok || c == '\n' {
					break
				}
				l.advance()
			}
		case c == ' ' || c == '\t' || c == '\r':
			l.advance()
		case c == '\n':
			pos := l.pos()
			for {
				c, ok := l.peekByte()
				if !ok {
					break
				}
				if c == '\n' || c == ' ' || c == '\t' || c == '\r' {
					l.advance()
					continue
				}
				if c == '#' {
					for {
						c, ok := l.peekByte()
						if !ok || c == '\n' {
							break
						}
						l.advance()
					}
					continue
				}
				break
			}
			return Token{Kind: TokNewline, Text: "\\n", Pos: pos}, nil
		default:
			return l.lexToken()
		}
	}
}

func (l *Lexer) pos() Pos { return Pos{Line: l.line, Col: l.col} }

func (l *Lexer) lexToken() (Token, error) {
	pos := l.pos()
	start := l.off
	c := l.src[start]
	switch {
	case isDigit(c):
		text := l.word(isDigit)
		n, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return Token{}, fmt.Errorf("%s: bad number %q: %v", pos, text, err)
		}
		return Token{Kind: TokNumber, Text: text, Num: n, Pos: pos}, nil
	case isAlpha(c):
		text := l.word(isAlnum)
		return Token{Kind: keyword(text), Text: text, Pos: pos}, nil
	}
	l.advance()
	var k TokKind
	switch c {
	case '=':
		k = TokAssign
	case '+':
		k = TokPlus
	case '-':
		k = TokMinus
	case '*':
		k = TokStar
	case '(':
		k = TokLParen
	case ')':
		k = TokRParen
	case '[':
		k = TokLBracket
	case ']':
		k = TokRBracket
	case ',':
		k = TokComma
	default:
		return Token{}, fmt.Errorf("%s: unexpected character %q", pos, string(c))
	}
	return Token{Kind: k, Text: l.src[start:l.off], Pos: pos}, nil
}

// word consumes the run of bytes satisfying in that starts at the current
// byte and returns it. The run never holds a newline, so only the column
// moves.
func (l *Lexer) word(in func(byte) bool) string {
	start := l.off
	for l.off++; l.off < len(l.src) && in(l.src[l.off]); l.off++ {
	}
	l.col += l.off - start
	return l.src[start:l.off]
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isAlpha(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isAlnum(c byte) bool { return isAlpha(c) || isDigit(c) }

// LexAll tokenizes the whole input (testing helper).
func LexAll(src string) ([]Token, error) {
	l := NewLexer(src)
	var out []Token
	for {
		t, err := l.Next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.Kind == TokEOF {
			return out, nil
		}
	}
}
