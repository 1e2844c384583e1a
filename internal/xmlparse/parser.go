// Package xmlparse is a small, dependency-free SAX-style XML parser. It
// produces the event stream (start element, end element, character data)
// from which the succinct document model of Section 2 is built; the
// streaming baseline evaluator consumes the same events. It supports
// attributes, comments, CDATA sections, processing instructions, DOCTYPE
// declarations (skipped), and the predefined plus numeric character
// entities. It is deliberately not a full validating parser.
package xmlparse

import (
	"context"
	"fmt"
	"strconv"
	"strings"
)

// Attr is a parsed attribute.
type Attr struct {
	Name  string
	Value string
}

// Handler receives parse events.
type Handler interface {
	StartElement(name string, attrs []Attr) error
	EndElement(name string) error
	// Text receives character data; the slice is only valid during the call.
	Text(data []byte) error
}

// SyntaxError reports a malformed document.
type SyntaxError struct {
	Offset int
	Msg    string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("xml syntax error at byte %d: %s", e.Offset, e.Msg)
}

type parser struct {
	data []byte
	pos  int
	h    Handler
	// cancellation: ctx is polled every pollStride loop iterations of run
	// (nil = never). Each iteration consumes at least one byte, so the poll
	// interval is bounded by pollStride bytes of input.
	ctx      context.Context
	pollLeft int
	// reusable buffers
	textBuf []byte
	stack   []string
}

// pollStride is the number of markup/text items parsed between context
// polls: cheap enough to be invisible, frequent enough that cancelling a
// multi-gigabyte parse takes effect within a few thousand events.
const pollStride = 2048

// Parse parses the document and streams events to h.
func Parse(data []byte, h Handler) error {
	return ParseCtx(context.Background(), data, h)
}

// ParseCtx is Parse with cancellation: the event loop polls ctx at bounded
// intervals and returns its error once it is done, mirroring the query-side
// polling contract (a build driving a cancelled context stops within one
// polling interval, not at end of input).
func ParseCtx(ctx context.Context, data []byte, h Handler) error {
	if ctx != nil && ctx.Done() == nil {
		ctx = nil // uncancellable: skip the Err calls entirely
	}
	p := &parser{data: data, h: h, ctx: ctx, pollLeft: pollStride}
	return p.run()
}

// poll checks the context once per pollStride calls.
func (p *parser) poll() error {
	p.pollLeft--
	if p.pollLeft > 0 {
		return nil
	}
	p.pollLeft = pollStride
	if p.ctx == nil {
		return nil
	}
	return p.ctx.Err()
}

func (p *parser) errf(format string, args ...any) error {
	return &SyntaxError{Offset: p.pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) run() error {
	sawRoot := false
	for p.pos < len(p.data) {
		if err := p.poll(); err != nil {
			return err
		}
		if p.data[p.pos] == '<' {
			if err := p.markup(&sawRoot); err != nil {
				return err
			}
		} else {
			if err := p.text(); err != nil {
				return err
			}
		}
	}
	if len(p.stack) != 0 {
		return p.errf("unclosed element <%s>", p.stack[len(p.stack)-1])
	}
	if !sawRoot {
		return p.errf("no root element")
	}
	return nil
}

func (p *parser) markup(sawRoot *bool) error {
	start := p.pos
	if p.pos+1 >= len(p.data) {
		return p.errf("truncated markup")
	}
	switch p.data[p.pos+1] {
	case '?':
		return p.skipPI()
	case '!':
		return p.skipDecl()
	case '/':
		return p.endTag()
	default:
		if len(p.stack) == 0 && *sawRoot {
			p.pos = start
			return p.errf("content after root element")
		}
		*sawRoot = true
		return p.startTag()
	}
}

func (p *parser) skipPI() error {
	end := indexFrom(p.data, p.pos+2, "?>")
	if end < 0 {
		return p.errf("unterminated processing instruction")
	}
	p.pos = end + 2
	return nil
}

func (p *parser) skipDecl() error {
	// <!-- comment -->, <![CDATA[ ... ]]> (handled in text), <!DOCTYPE ...>
	if strings.HasPrefix(string(p.data[p.pos:min(p.pos+4, len(p.data))]), "<!--") {
		end := indexFrom(p.data, p.pos+4, "-->")
		if end < 0 {
			return p.errf("unterminated comment")
		}
		p.pos = end + 3
		return nil
	}
	if strings.HasPrefix(string(p.data[p.pos:min(p.pos+9, len(p.data))]), "<![CDATA[") {
		end := indexFrom(p.data, p.pos+9, "]]>")
		if end < 0 {
			return p.errf("unterminated CDATA section")
		}
		if len(p.stack) == 0 {
			return p.errf("CDATA outside root element")
		}
		if end > p.pos+9 {
			if err := p.h.Text(p.data[p.pos+9 : end]); err != nil {
				return err
			}
		}
		p.pos = end + 3
		return nil
	}
	// DOCTYPE or other declaration: skip to matching '>' (allow one nesting
	// level of [...] for internal subsets).
	depth := 0
	for i := p.pos + 2; i < len(p.data); i++ {
		switch p.data[i] {
		case '[':
			depth++
		case ']':
			depth--
		case '>':
			if depth <= 0 {
				p.pos = i + 1
				return nil
			}
		}
	}
	return p.errf("unterminated declaration")
}

func (p *parser) startTag() error {
	p.pos++ // consume '<'
	name, err := p.name()
	if err != nil {
		return err
	}
	var attrs []Attr
	for {
		p.skipSpace()
		if p.pos >= len(p.data) {
			return p.errf("unterminated start tag <%s", name)
		}
		c := p.data[p.pos]
		if c == '>' {
			p.pos++
			if err := p.h.StartElement(name, attrs); err != nil {
				return err
			}
			p.stack = append(p.stack, name)
			return nil
		}
		if c == '/' {
			if p.pos+1 >= len(p.data) || p.data[p.pos+1] != '>' {
				return p.errf("malformed empty-element tag")
			}
			p.pos += 2
			if err := p.h.StartElement(name, attrs); err != nil {
				return err
			}
			return p.h.EndElement(name)
		}
		aname, err := p.name()
		if err != nil {
			return err
		}
		p.skipSpace()
		if p.pos >= len(p.data) || p.data[p.pos] != '=' {
			return p.errf("expected '=' after attribute %q", aname)
		}
		p.pos++
		p.skipSpace()
		if p.pos >= len(p.data) || (p.data[p.pos] != '"' && p.data[p.pos] != '\'') {
			return p.errf("expected quoted attribute value for %q", aname)
		}
		quote := p.data[p.pos]
		p.pos++
		vstart := p.pos
		for p.pos < len(p.data) && p.data[p.pos] != quote {
			p.pos++
		}
		if p.pos >= len(p.data) {
			return p.errf("unterminated attribute value for %q", aname)
		}
		val, err := p.unescape(p.data[vstart:p.pos])
		if err != nil {
			return err
		}
		p.pos++
		attrs = append(attrs, Attr{Name: aname, Value: string(val)})
	}
}

func (p *parser) endTag() error {
	p.pos += 2 // consume '</'
	name, err := p.name()
	if err != nil {
		return err
	}
	p.skipSpace()
	if p.pos >= len(p.data) || p.data[p.pos] != '>' {
		return p.errf("malformed end tag </%s", name)
	}
	p.pos++
	if len(p.stack) == 0 {
		return p.errf("unexpected </%s>", name)
	}
	top := p.stack[len(p.stack)-1]
	if top != name {
		return p.errf("mismatched end tag </%s>, open element is <%s>", name, top)
	}
	p.stack = p.stack[:len(p.stack)-1]
	return p.h.EndElement(name)
}

func (p *parser) text() error {
	start := p.pos
	for p.pos < len(p.data) && p.data[p.pos] != '<' {
		p.pos++
	}
	raw := p.data[start:p.pos]
	if len(p.stack) == 0 {
		// Whitespace between the prolog and the root is ignored.
		if len(strings.TrimSpace(string(raw))) != 0 {
			p.pos = start
			return p.errf("character data outside root element")
		}
		return nil
	}
	data, err := p.unescape(raw)
	if err != nil {
		return err
	}
	if len(data) > 0 {
		return p.h.Text(data)
	}
	return nil
}

func (p *parser) name() (string, error) {
	start := p.pos
	for p.pos < len(p.data) && isNameByte(p.data[p.pos], p.pos == start) {
		p.pos++
	}
	if p.pos == start {
		return "", p.errf("expected name")
	}
	return string(p.data[start:p.pos]), nil
}

func (p *parser) skipSpace() {
	for p.pos < len(p.data) && isSpace(p.data[p.pos]) {
		p.pos++
	}
}

// unescape resolves entity references in raw.
func (p *parser) unescape(raw []byte) ([]byte, error) {
	amp := -1
	for i, c := range raw {
		if c == '&' {
			amp = i
			break
		}
	}
	if amp < 0 {
		return raw, nil
	}
	out := p.textBuf[:0]
	out = append(out, raw[:amp]...)
	i := amp
	for i < len(raw) {
		c := raw[i]
		if c != '&' {
			out = append(out, c)
			i++
			continue
		}
		semi := -1
		for j := i + 1; j < len(raw) && j < i+12; j++ {
			if raw[j] == ';' {
				semi = j
				break
			}
		}
		if semi < 0 {
			return nil, p.errf("unterminated entity reference")
		}
		ent := string(raw[i+1 : semi])
		switch ent {
		case "amp":
			out = append(out, '&')
		case "lt":
			out = append(out, '<')
		case "gt":
			out = append(out, '>')
		case "quot":
			out = append(out, '"')
		case "apos":
			out = append(out, '\'')
		default:
			if strings.HasPrefix(ent, "#") {
				var code int64
				var err error
				if strings.HasPrefix(ent, "#x") || strings.HasPrefix(ent, "#X") {
					code, err = strconv.ParseInt(ent[2:], 16, 32)
				} else {
					code, err = strconv.ParseInt(ent[1:], 10, 32)
				}
				if err != nil || code < 0 || code > 0x10FFFF {
					return nil, p.errf("bad character reference &%s;", ent)
				}
				out = appendRune(out, rune(code))
			} else {
				return nil, p.errf("unknown entity &%s;", ent)
			}
		}
		i = semi + 1
	}
	p.textBuf = out
	return out, nil
}

func appendRune(b []byte, r rune) []byte {
	return append(b, string(r)...)
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

func isNameByte(c byte, first bool) bool {
	if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == ':' || c >= 0x80 {
		return true
	}
	if !first && (c >= '0' && c <= '9' || c == '-' || c == '.') {
		return true
	}
	return false
}

func indexFrom(data []byte, from int, sub string) int {
	if from >= len(data) {
		return -1
	}
	idx := strings.Index(string(data[from:]), sub)
	if idx < 0 {
		return -1
	}
	return from + idx
}

// AppendEscape appends s to dst with the markup characters escaped as
// predefined entities, for serialization (Section 4.3 / experimental
// protocol in Section 6.1): ampersand and angle brackets always, both
// quote characters too when attr is set (attribute values). Unescaped runs
// are copied in one piece, so text without markup costs one append.
func AppendEscape(dst, s []byte, attr bool) []byte {
	start := 0
	for i, c := range s {
		var ent string
		switch c {
		case '&':
			ent = "&amp;"
		case '<':
			ent = "&lt;"
		case '>':
			ent = "&gt;"
		case '"':
			if !attr {
				continue
			}
			ent = "&quot;"
		case '\'':
			if !attr {
				continue
			}
			ent = "&apos;"
		default:
			continue
		}
		dst = append(dst, s[start:i]...)
		dst = append(dst, ent...)
		start = i + 1
	}
	return append(dst, s[start:]...)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
