// Package blif reads and writes the Berkeley Logic Interchange Format, the
// format the MCNC benchmark suite is distributed in and that SIS consumes and
// produces. Technology-independent networks use .names covers; mapped
// circuits use .gate instances resolved against a cell library.
//
// One extension is supported for round-tripping the paper's results: the
// non-standard directive ".volt <gate> low" records that a mapped gate is
// powered at Vlow (rail 1), and ".volt <gate> <rail>" that it is powered at a
// deeper rail index of a multi-rail library. SIS-compatible readers ignore
// unknown dot-directives.
package blif

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// stmt is one logical BLIF statement: a dot-directive with its tokens, plus
// any cover lines that follow a .names.
type stmt struct {
	line   int
	tokens []string // tokens[0] is the directive, e.g. ".names"
	cover  []string // raw cover lines for .names
}

// lex splits the input into logical lines (handling '\' continuation and '#'
// comments) and groups them into statements.
func lex(r io.Reader) ([]stmt, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	var stmts []stmt
	lineno := 0
	pending := ""
	pendingStart := 0
	flush := func(text string, at int) {
		fields := strings.Fields(text)
		if len(fields) == 0 {
			return
		}
		if strings.HasPrefix(fields[0], ".") {
			stmts = append(stmts, stmt{line: at, tokens: fields})
			return
		}
		// A non-directive line is a cover row of the preceding .names.
		if len(stmts) == 0 || stmts[len(stmts)-1].tokens[0] != ".names" {
			stmts = append(stmts, stmt{line: at, tokens: []string{".<cover-orphan>"}, cover: []string{text}})
			return
		}
		last := &stmts[len(stmts)-1]
		last.cover = append(last.cover, strings.Join(fields, " "))
	}
	for sc.Scan() {
		lineno++
		text := sc.Text()
		if i := strings.IndexByte(text, '#'); i >= 0 {
			text = text[:i]
		}
		if strings.HasSuffix(strings.TrimRight(text, " \t"), "\\") {
			t := strings.TrimRight(text, " \t")
			if pending == "" {
				pendingStart = lineno
			}
			pending += t[:len(t)-1] + " "
			continue
		}
		if pending != "" {
			flush(pending+text, pendingStart)
			pending = ""
			continue
		}
		flush(text, lineno)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("blif: read: %w", err)
	}
	if pending != "" {
		return nil, fmt.Errorf("blif: line %d: dangling line continuation", pendingStart)
	}
	for _, s := range stmts {
		if s.tokens[0] == ".<cover-orphan>" {
			return nil, fmt.Errorf("blif: line %d: cover row outside a .names block", s.line)
		}
	}
	return stmts, nil
}

// model is the raw parsed content of one .model block.
type model struct {
	name    string
	inputs  []string
	outputs []string
	names   []namesBlock
	gates   []gateBlock
	volts   []voltBlock
}

type namesBlock struct {
	line    int
	signals []string // fanins then output
	cover   []string
}

type gateBlock struct {
	line     int
	cellName string
	pins     map[string]string // formal -> actual
}

type voltBlock struct {
	line int
	gate string
	rail int
}

// railIndex parses a .volt level: "high" is rail 0, "low" rail 1, and a
// non-negative decimal number the rail of that index.
func railIndex(level string) (int, bool) {
	switch level {
	case "high":
		return 0, true
	case "low":
		return 1, true
	}
	n, err := strconv.Atoi(level)
	return n, err == nil && n >= 0
}

// parseModel walks the statement list into a raw model.
func parseModel(stmts []stmt) (*model, error) {
	m := &model{}
	seenEnd := false
	for _, s := range stmts {
		if seenEnd {
			return nil, fmt.Errorf("blif: line %d: content after .end (multiple models are not supported)", s.line)
		}
		switch s.tokens[0] {
		case ".model":
			if m.name != "" {
				return nil, fmt.Errorf("blif: line %d: second .model", s.line)
			}
			if len(s.tokens) > 1 {
				m.name = s.tokens[1]
			}
		case ".inputs":
			m.inputs = append(m.inputs, s.tokens[1:]...)
		case ".outputs":
			m.outputs = append(m.outputs, s.tokens[1:]...)
		case ".names":
			if len(s.tokens) < 2 {
				return nil, fmt.Errorf("blif: line %d: .names needs at least an output", s.line)
			}
			m.names = append(m.names, namesBlock{line: s.line, signals: s.tokens[1:], cover: s.cover})
		case ".gate":
			if len(s.tokens) < 2 {
				return nil, fmt.Errorf("blif: line %d: .gate needs a cell name", s.line)
			}
			gb := gateBlock{line: s.line, cellName: s.tokens[1], pins: map[string]string{}}
			for _, kv := range s.tokens[2:] {
				eq := strings.IndexByte(kv, '=')
				if eq <= 0 {
					return nil, fmt.Errorf("blif: line %d: malformed pin binding %q", s.line, kv)
				}
				gb.pins[kv[:eq]] = kv[eq+1:]
			}
			m.gates = append(m.gates, gb)
		case ".volt":
			rail, ok := 0, len(s.tokens) == 3
			if ok {
				rail, ok = railIndex(s.tokens[2])
			}
			if !ok {
				return nil, fmt.Errorf("blif: line %d: .volt wants \"<gate> high|low|<rail>\"", s.line)
			}
			m.volts = append(m.volts, voltBlock{line: s.line, gate: s.tokens[1], rail: rail})
		case ".latch":
			return nil, fmt.Errorf("blif: line %d: sequential elements (.latch) are not supported; the paper's flow is combinational", s.line)
		case ".end":
			seenEnd = true
		case ".exdc", ".clock", ".wire_load_slope", ".default_input_arrival":
			// Ignored directives that appear in MCNC-era files.
		default:
			return nil, fmt.Errorf("blif: line %d: unsupported directive %s", s.line, s.tokens[0])
		}
	}
	if m.name == "" {
		m.name = "unnamed"
	}
	if len(m.names) > 0 && len(m.gates) > 0 {
		return nil, fmt.Errorf("blif: model %s mixes .names and .gate; split mapped and unmapped views", m.name)
	}
	return m, nil
}
