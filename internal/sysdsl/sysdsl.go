// Package sysdsl parses and serializes a small text format for systems,
// so the command-line tools can read networks from files, and exports
// Graphviz DOT for visualization.
//
// Format (order of sections is free; '#' starts a comment):
//
//	names left right
//	var fork0 init=0
//	var fork1
//	proc phil0 init=think left=fork0 right=fork1
//	proc phil1 left=fork1 right=fork0
//
// Every processor must bind every declared name to a declared variable.
// Missing init attributes default to "0".
//
// Generator directives replace the whole description:
//
//	gen ring 7
//	gen dining 5
//	gen dining-flipped 6
//	gen star 4
//	gen tree 7
//	gen fig1 | fig2 | fig3
//
// A generator's size is at most MaxGenSize.
package sysdsl

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"simsym/internal/system"
)

// Sentinel errors.
var (
	ErrSyntax     = errors.New("sysdsl: syntax error")
	ErrUnknown    = errors.New("sysdsl: unknown reference")
	ErrIncomplete = errors.New("sysdsl: incomplete description")
	ErrTooLarge   = errors.New("sysdsl: generator size above MaxGenSize")
)

// MaxGenSize bounds a generator directive's size: 65,536, the largest
// ring E6 labels. A larger size is rejected before anything is built, so
// a short directive cannot demand an unbounded allocation.
const MaxGenSize = 1 << 16

// Load reads the system the commands' -gen and -spec flags name: the
// generator directive gen when set, else the DSL file spec ("-" for
// standard input).
func Load(spec, gen string) (*system.System, error) {
	switch {
	case gen != "":
		return Parse("gen " + gen)
	case spec == "-":
		data, err := io.ReadAll(os.Stdin)
		if err != nil {
			return nil, fmt.Errorf("reading stdin: %w", err)
		}
		return Parse(string(data))
	case spec != "":
		data, err := os.ReadFile(spec)
		if err != nil {
			return nil, fmt.Errorf("reading spec: %w", err)
		}
		return Parse(string(data))
	default:
		return nil, errors.New("need -spec or -gen")
	}
}

// Parse reads the DSL (or a generator directive) and returns the system.
func Parse(src string) (*system.System, error) {
	lines := strings.Split(src, "\n")
	var names []system.Name
	type procDecl struct {
		id    string
		init  string
		binds map[string]string
		line  int
	}
	type varDecl struct {
		id   string
		init string
	}
	var procs []procDecl
	var vars []varDecl
	varIdx := make(map[string]int)
	procSeen := make(map[string]bool)

	for lineNo, raw := range lines {
		line := raw
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "gen":
			return generate(fields[1:], lineNo+1)
		case "names":
			if len(fields) < 2 {
				return nil, fmt.Errorf("%w: line %d: names needs at least one name", ErrSyntax, lineNo+1)
			}
			if names != nil {
				return nil, fmt.Errorf("%w: line %d: duplicate names line", ErrSyntax, lineNo+1)
			}
			for _, f := range fields[1:] {
				names = append(names, system.Name(f))
			}
		case "var":
			if len(fields) < 2 {
				return nil, fmt.Errorf("%w: line %d: var needs an id", ErrSyntax, lineNo+1)
			}
			v := varDecl{id: fields[1], init: "0"}
			for _, attr := range fields[2:] {
				k, val, ok := strings.Cut(attr, "=")
				if !ok || k != "init" {
					return nil, fmt.Errorf("%w: line %d: bad var attribute %q", ErrSyntax, lineNo+1, attr)
				}
				v.init = val
			}
			if _, dup := varIdx[v.id]; dup {
				return nil, fmt.Errorf("%w: line %d: duplicate var %q", ErrSyntax, lineNo+1, v.id)
			}
			varIdx[v.id] = len(vars)
			vars = append(vars, v)
		case "proc":
			if len(fields) < 2 {
				return nil, fmt.Errorf("%w: line %d: proc needs an id", ErrSyntax, lineNo+1)
			}
			if procSeen[fields[1]] {
				return nil, fmt.Errorf("%w: line %d: duplicate proc %q", ErrSyntax, lineNo+1, fields[1])
			}
			procSeen[fields[1]] = true
			p := procDecl{id: fields[1], init: "0", binds: make(map[string]string), line: lineNo + 1}
			for _, attr := range fields[2:] {
				k, val, ok := strings.Cut(attr, "=")
				if !ok {
					return nil, fmt.Errorf("%w: line %d: bad proc attribute %q", ErrSyntax, lineNo+1, attr)
				}
				if k == "init" {
					p.init = val
				} else {
					if _, dup := p.binds[k]; dup {
						return nil, fmt.Errorf("%w: line %d: duplicate binding %q", ErrSyntax, lineNo+1, k)
					}
					p.binds[k] = val
				}
			}
			procs = append(procs, p)
		default:
			return nil, fmt.Errorf("%w: line %d: unknown keyword %q", ErrSyntax, lineNo+1, fields[0])
		}
	}

	if len(names) == 0 {
		return nil, fmt.Errorf("%w: no names line", ErrIncomplete)
	}
	if len(procs) == 0 {
		return nil, fmt.Errorf("%w: no processors", ErrIncomplete)
	}
	s := &system.System{
		Names:    names,
		ProcIDs:  make([]string, len(procs)),
		VarIDs:   make([]string, len(vars)),
		Nbr:      make([][]int, len(procs)),
		ProcInit: make([]string, len(procs)),
		VarInit:  make([]string, len(vars)),
	}
	for i, v := range vars {
		s.VarIDs[i] = v.id
		s.VarInit[i] = v.init
	}
	for i, p := range procs {
		s.ProcIDs[i] = p.id
		s.ProcInit[i] = p.init
		row := make([]int, len(names))
		for j, n := range names {
			target, ok := p.binds[string(n)]
			if !ok {
				return nil, fmt.Errorf("%w: line %d: proc %q missing binding for name %q",
					ErrIncomplete, p.line, p.id, n)
			}
			vi, ok := varIdx[target]
			if !ok {
				return nil, fmt.Errorf("%w: line %d: proc %q binds %q to undeclared var %q",
					ErrUnknown, p.line, p.id, n, target)
			}
			row[j] = vi
		}
		for bound := range p.binds {
			found := false
			for _, n := range names {
				if string(n) == bound {
					found = true
				}
			}
			if !found {
				return nil, fmt.Errorf("%w: line %d: proc %q binds unknown name %q",
					ErrUnknown, p.line, p.id, bound)
			}
		}
		s.Nbr[i] = row
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("sysdsl: %w", err)
	}
	return s, nil
}

func generate(args []string, lineNo int) (*system.System, error) {
	if len(args) == 0 {
		return nil, fmt.Errorf("%w: line %d: gen needs a generator", ErrSyntax, lineNo)
	}
	size := 0
	if len(args) >= 2 {
		v, err := strconv.Atoi(args[1])
		if err != nil {
			return nil, fmt.Errorf("%w: line %d: bad size %q", ErrSyntax, lineNo, args[1])
		}
		size = v
	}
	if size > MaxGenSize {
		return nil, fmt.Errorf("%w: line %d: size %d", ErrTooLarge, lineNo, size)
	}
	switch args[0] {
	case "ring":
		return system.Ring(size)
	case "dining":
		return system.Dining(size)
	case "dining-flipped":
		return system.DiningFlipped(size)
	case "star":
		return system.Star(size)
	case "tree":
		return system.Tree(size)
	case "fig1":
		return system.Fig1(), nil
	case "fig2":
		return system.Fig2(), nil
	case "fig3":
		return system.Fig3(), nil
	case "q-over-s":
		return system.QOverSWitness(), nil
	default:
		return nil, fmt.Errorf("%w: line %d: unknown generator %q", ErrUnknown, lineNo, args[0])
	}
}

// Serialize renders a system in the DSL; Parse(Serialize(s)) reproduces s.
func Serialize(s *system.System) string {
	var b strings.Builder
	b.WriteString("names")
	for _, n := range s.Names {
		fmt.Fprintf(&b, " %s", n)
	}
	b.WriteByte('\n')
	for v := range s.VarIDs {
		fmt.Fprintf(&b, "var %s init=%s\n", s.VarIDs[v], s.VarInit[v])
	}
	for p := range s.ProcIDs {
		fmt.Fprintf(&b, "proc %s init=%s", s.ProcIDs[p], s.ProcInit[p])
		for j, n := range s.Names {
			fmt.Fprintf(&b, " %s=%s", n, s.VarIDs[s.Nbr[p][j]])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// DOT renders the bipartite network in Graphviz format: processors as
// boxes, variables as ellipses, edges labeled by local names.
func DOT(s *system.System, title string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "graph %q {\n", title)
	b.WriteString("  layout=neato; overlap=false;\n")
	for p := range s.ProcIDs {
		fmt.Fprintf(&b, "  %q [shape=box,label=\"%s\\n%s\"];\n", "p:"+s.ProcIDs[p], s.ProcIDs[p], s.ProcInit[p])
	}
	for v := range s.VarIDs {
		fmt.Fprintf(&b, "  %q [shape=ellipse,label=\"%s\\n%s\"];\n", "v:"+s.VarIDs[v], s.VarIDs[v], s.VarInit[v])
	}
	type edge struct {
		p, v int
		n    system.Name
	}
	var edges []edge
	for p := range s.Nbr {
		for j, v := range s.Nbr[p] {
			edges = append(edges, edge{p: p, v: v, n: s.Names[j]})
		}
	}
	sort.Slice(edges, func(a, b int) bool {
		if edges[a].p != edges[b].p {
			return edges[a].p < edges[b].p
		}
		return edges[a].n < edges[b].n
	})
	for _, e := range edges {
		fmt.Fprintf(&b, "  %q -- %q [label=%q];\n", "p:"+s.ProcIDs[e.p], "v:"+s.VarIDs[e.v], string(e.n))
	}
	b.WriteString("}\n")
	return b.String()
}
