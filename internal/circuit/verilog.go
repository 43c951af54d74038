package circuit

// Structural Verilog writer and gate-level subset reader. Learned netlists
// exported here drop into standard RTL flows; the reader accepts the
// single-module, primitive-gate subset the writer emits (and that gate-level
// netlists from synthesis tools commonly use):
//
//	module top(a, b, z);
//	  input a, b;
//	  output z;
//	  wire n1;
//	  and g0 (n1, a, b);
//	  not g1 (z, n1);
//	endmodule
//
// Supported primitives: and, or, xor, nand, nor, xnor (2 inputs), not, buf
// (1 input), and constant assigns `assign x = 1'b0/1'b1;` plus wire-alias
// assigns `assign x = y;`. Identifiers with characters outside
// [A-Za-z0-9_$] (e.g. bus bits like "a[3]") are emitted and re-read in
// escaped-identifier form ("\a[3] ").

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// WriteVerilog serializes the circuit as one structural Verilog module.
func WriteVerilog(w io.Writer, c *Circuit, moduleName string) error {
	if moduleName == "" {
		moduleName = "logicregression"
	}
	bw := bufio.NewWriter(w)

	names := make([]string, len(c.nodes))
	for i, pi := range c.pis {
		names[pi] = c.piNames[i]
	}
	ports := make([]string, 0, len(c.piNames)+len(c.poNames))
	for _, n := range c.piNames {
		ports = append(ports, vlogID(n))
	}
	for _, n := range c.poNames {
		ports = append(ports, vlogID(n))
	}
	fmt.Fprintf(bw, "module %s(%s);\n", moduleName, strings.Join(ports, ", "))
	for _, n := range c.piNames {
		fmt.Fprintf(bw, "  input %s;\n", vlogID(n))
	}
	for _, n := range c.poNames {
		fmt.Fprintf(bw, "  output %s;\n", vlogID(n))
	}

	gateName := map[GateType]string{
		And: "and", Or: "or", Xor: "xor", Nand: "nand", Nor: "nor",
		Xnor: "xnor", Not: "not", Buf: "buf",
	}
	gid := 0
	var body strings.Builder
	for id, n := range c.nodes {
		if n.Type == PI {
			continue
		}
		if names[id] == "" {
			names[id] = fmt.Sprintf("n%d", id)
			fmt.Fprintf(bw, "  wire %s;\n", vlogID(names[id]))
		}
		switch n.Type {
		case Const0:
			fmt.Fprintf(&body, "  assign %s = 1'b0;\n", vlogID(names[id]))
		case Const1:
			fmt.Fprintf(&body, "  assign %s = 1'b1;\n", vlogID(names[id]))
		case Not, Buf:
			fmt.Fprintf(&body, "  %s g%d (%s, %s);\n",
				gateName[n.Type], gid, vlogID(names[id]), vlogID(names[n.In0]))
			gid++
		default:
			fmt.Fprintf(&body, "  %s g%d (%s, %s, %s);\n",
				gateName[n.Type], gid, vlogID(names[id]), vlogID(names[n.In0]), vlogID(names[n.In1]))
			gid++
		}
	}
	bw.WriteString(body.String())
	for i, s := range c.pos {
		if names[s] != c.poNames[i] {
			fmt.Fprintf(bw, "  assign %s = %s;\n", vlogID(c.poNames[i]), vlogID(names[s]))
		}
	}
	fmt.Fprintln(bw, "endmodule")
	return bw.Flush()
}

// vlogID renders a net name as a Verilog identifier, escaping when needed.
func vlogID(name string) string {
	simple := name != ""
	for i := 0; i < len(name); i++ {
		ch := name[i]
		ok := ch == '_' || ch == '$' ||
			(ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') ||
			(ch >= '0' && ch <= '9' && i > 0)
		if !ok {
			simple = false
			break
		}
	}
	if simple {
		return name
	}
	return "\\" + name + " " // escaped identifier: backslash..space
}

// ParseVerilog reads the gate-level subset back into a circuit.
func ParseVerilog(r io.Reader) (*Circuit, error) {
	src, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	toks, err := vlogTokens(string(src))
	if err != nil {
		return nil, err
	}
	p := &vlogParser{toks: toks}
	return p.parseModule()
}

// vlogTokens splits Verilog source into tokens, handling comments and
// escaped identifiers.
func vlogTokens(src string) ([]string, error) {
	var toks []string
	i := 0
	for i < len(src) {
		ch := src[i]
		switch {
		case ch == ' ' || ch == '\t' || ch == '\n' || ch == '\r':
			i++
		case ch == '/' && i+1 < len(src) && src[i+1] == '/':
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case ch == '/' && i+1 < len(src) && src[i+1] == '*':
			end := strings.Index(src[i+2:], "*/")
			if end < 0 {
				return nil, fmt.Errorf("verilog: unterminated block comment")
			}
			i += end + 4
		case ch == '\\':
			// Escaped identifier: up to whitespace.
			j := i + 1
			for j < len(src) && src[j] != ' ' && src[j] != '\t' && src[j] != '\n' && src[j] != '\r' {
				j++
			}
			toks = append(toks, src[i:j])
			i = j
		case ch == '(' || ch == ')' || ch == ',' || ch == ';' || ch == '=':
			toks = append(toks, string(ch))
			i++
		default:
			j := i
			for j < len(src) && !strings.ContainsRune(" \t\n\r(),;=", rune(src[j])) {
				j++
			}
			toks = append(toks, src[i:j])
			i = j
		}
	}
	return toks, nil
}

type vlogParser struct {
	toks []string
	pos  int
}

func (p *vlogParser) peek() string {
	if p.pos < len(p.toks) {
		return p.toks[p.pos]
	}
	return ""
}

func (p *vlogParser) next() string {
	t := p.peek()
	p.pos++
	return t
}

func (p *vlogParser) expect(t string) error {
	if got := p.next(); got != t {
		return fmt.Errorf("verilog: expected %q, got %q", t, got)
	}
	return nil
}

// ident strips escaped-identifier syntax.
func ident(tok string) string {
	if strings.HasPrefix(tok, "\\") {
		return tok[1:]
	}
	return tok
}

func (p *vlogParser) parseModule() (*Circuit, error) {
	if err := p.expect("module"); err != nil {
		return nil, err
	}
	p.next() // module name
	if err := p.expect("("); err != nil {
		return nil, err
	}
	for p.peek() != ")" && p.peek() != "" {
		p.next() // port list entries (directions come from declarations)
		if p.peek() == "," {
			p.next()
		}
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	if err := p.expect(";"); err != nil {
		return nil, err
	}

	var inputs, outputs []string
	var gates []vlogGate
	var assigns []vlogAssign

	for {
		tok := p.next()
		switch tok {
		case "":
			return nil, fmt.Errorf("verilog: missing endmodule")
		case "endmodule":
			return p.build(inputs, outputs, gates, assigns)
		case "input", "output", "wire":
			for {
				name := p.next()
				if name == ";" || name == "" {
					break
				}
				if name == "," {
					continue
				}
				switch tok {
				case "input":
					inputs = append(inputs, ident(name))
				case "output":
					outputs = append(outputs, ident(name))
				}
			}
		case "assign":
			lhs := ident(p.next())
			if err := p.expect("="); err != nil {
				return nil, err
			}
			rhs := ident(p.next())
			if err := p.expect(";"); err != nil {
				return nil, err
			}
			assigns = append(assigns, vlogAssign{lhs: lhs, rhs: rhs})
		case "and", "or", "xor", "nand", "nor", "xnor", "not", "buf":
			// Optional instance name.
			if p.peek() != "(" {
				p.next()
			}
			if err := p.expect("("); err != nil {
				return nil, err
			}
			var nets []string
			for p.peek() != ")" && p.peek() != "" {
				t := p.next()
				if t == "," {
					continue
				}
				nets = append(nets, ident(t))
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			if err := p.expect(";"); err != nil {
				return nil, err
			}
			gates = append(gates, vlogGate{kind: tok, nets: nets})
		default:
			return nil, fmt.Errorf("verilog: unsupported construct %q", tok)
		}
	}
}

// vlogGate is one primitive-gate instantiation (output net first).
type vlogGate struct {
	kind string
	nets []string
}

// vlogAssign is one continuous assignment.
type vlogAssign struct{ lhs, rhs string }

// build resolves the collected netlist into a Circuit.
func (p *vlogParser) build(inputs, outputs []string,
	gates []vlogGate, assigns []vlogAssign) (*Circuit, error) {

	c := New()
	sig := make(map[string]Signal)
	for _, name := range inputs {
		if _, dup := sig[name]; dup {
			return nil, fmt.Errorf("verilog: duplicate input %q", name)
		}
		sig[name] = c.AddPI(name)
	}

	// Iteratively resolve gates/assigns whose operands are available.
	type item struct {
		isGate bool
		gate   int
		asn    int
	}
	pending := make([]item, 0, len(gates)+len(assigns))
	for i := range gates {
		pending = append(pending, item{isGate: true, gate: i})
	}
	for i := range assigns {
		pending = append(pending, item{asn: i})
	}
	arity := map[string]int{
		"and": 2, "or": 2, "xor": 2, "nand": 2, "nor": 2, "xnor": 2,
		"not": 1, "buf": 1,
	}
	for len(pending) > 0 {
		progress := false
		var remain []item
		for _, it := range pending {
			if it.isGate {
				g := gates[it.gate]
				want := arity[g.kind]
				if len(g.nets) != want+1 {
					return nil, fmt.Errorf("verilog: %s gate with %d nets", g.kind, len(g.nets))
				}
				ready := true
				ops := make([]Signal, 0, want)
				for _, net := range g.nets[1:] {
					s, ok := sig[net]
					if !ok {
						ready = false
						break
					}
					ops = append(ops, s)
				}
				if !ready {
					remain = append(remain, it)
					continue
				}
				var out Signal
				switch g.kind {
				case "and":
					out = c.And(ops[0], ops[1])
				case "or":
					out = c.Or(ops[0], ops[1])
				case "xor":
					out = c.Xor(ops[0], ops[1])
				case "nand":
					out = c.Nand(ops[0], ops[1])
				case "nor":
					out = c.Nor(ops[0], ops[1])
				case "xnor":
					out = c.Xnor(ops[0], ops[1])
				case "not":
					out = c.NotGate(ops[0])
				case "buf":
					out = c.BufGate(ops[0])
				}
				if _, dup := sig[g.nets[0]]; dup {
					return nil, fmt.Errorf("verilog: net %q driven twice", g.nets[0])
				}
				sig[g.nets[0]] = out
				progress = true
			} else {
				a := assigns[it.asn]
				var s Signal
				switch a.rhs {
				case "1'b0":
					s = c.Const(false)
				case "1'b1":
					s = c.Const(true)
				default:
					var ok bool
					s, ok = sig[a.rhs]
					if !ok {
						remain = append(remain, it)
						continue
					}
				}
				if _, dup := sig[a.lhs]; dup {
					return nil, fmt.Errorf("verilog: net %q driven twice", a.lhs)
				}
				sig[a.lhs] = s
				progress = true
			}
		}
		if !progress {
			return nil, fmt.Errorf("verilog: cyclic or undriven nets")
		}
		pending = remain
	}
	for _, name := range outputs {
		s, ok := sig[name]
		if !ok {
			return nil, fmt.Errorf("verilog: output %q undriven", name)
		}
		c.AddPO(name, s)
	}
	return c, nil
}
