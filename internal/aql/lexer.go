// Package aql implements a parser and compiler for the Array Query
// Language subset the paper's evaluation uses: two-way equi-join SELECT
// queries with optional INTO destination schemas and arithmetic projection
// expressions, e.g.
//
//	SELECT (Band2.reflectance - Band1.reflectance) /
//	       (Band2.reflectance + Band1.reflectance)
//	FROM Band1, Band2
//	WHERE Band1.time = Band2.time
//	  AND Band1.longitude = Band2.longitude
//	  AND Band1.latitude = Band2.latitude;
//
// Parsed queries compile against a cluster catalog into the predicate,
// destination schema and SELECT expressions (pipeline.Expr) the shuffle
// join executor consumes.
package aql

import (
	"fmt"
	"strings"
	"unicode"
)

// tokenKind classifies lexer output.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokSymbol // ( ) , . ; = * + - / < >
)

type token struct {
	kind tokenKind
	text string
	pos  int
}

// keywords of the AQL subset, matched case-insensitively.
var keywords = map[string]bool{
	"SELECT": true, "INTO": true, "FROM": true, "JOIN": true,
	"ON": true, "WHERE": true, "AND": true, "AS": true,
}

// isKeyword reports whether an identifier token is a reserved word.
func isKeyword(t token) bool {
	return t.kind == tokIdent && keywords[strings.ToUpper(t.text)]
}

// keywordIs reports whether t is the given keyword.
func keywordIs(t token, kw string) bool {
	return t.kind == tokIdent && strings.EqualFold(t.text, kw)
}

// lex tokenizes an AQL query.
func lex(src string) ([]token, error) {
	var toks []token
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case unicode.IsLetter(rune(c)) || c == '_':
			start := i
			for i < len(src) && (unicode.IsLetter(rune(src[i])) || unicode.IsDigit(rune(src[i])) || src[i] == '_') {
				i++
			}
			toks = append(toks, token{tokIdent, src[start:i], start})
		case c >= '0' && c <= '9':
			start := i
			for i < len(src) && (src[i] >= '0' && src[i] <= '9' || src[i] == '.') {
				i++
			}
			// Magnitude suffixes as in schema literals: 4M, 2K, 1G.
			if i < len(src) && strings.ContainsRune("KkMmGg", rune(src[i])) {
				i++
			}
			toks = append(toks, token{tokNumber, src[start:i], start})
		case c == '\'':
			start := i
			i++
			for i < len(src) && src[i] != '\'' {
				i++
			}
			if i >= len(src) {
				return nil, fmt.Errorf("aql: unterminated string at offset %d", start)
			}
			toks = append(toks, token{tokString, src[start+1 : i], start})
			i++
		case strings.ContainsRune("(),.;=*+-/<>[]:!", rune(c)):
			toks = append(toks, token{tokSymbol, string(c), i})
			i++
		default:
			return nil, fmt.Errorf("aql: unexpected character %q at offset %d", string(c), i)
		}
	}
	toks = append(toks, token{tokEOF, "", len(src)})
	return toks, nil
}
