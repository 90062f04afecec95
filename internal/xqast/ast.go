// Package xqast defines the abstract syntax tree for the XQuery fragment XQ
// of the paper (Section 3, Figure 6), plus the two internal statement forms
// the engine introduces during rewriting:
//
//   - signOff($x/π, r) statements (Section 3, "Introducing signOff-Statements
//     to XQ"), and
//   - conditional open/close tag constructors, produced by if-pushdown rule
//     NC (Figure 7), corresponding to the grammar production
//     "(if cond then <a> else (), q, if cond then </a> else ())".
//
// The fragment (Figure 6):
//
//	Q    ::= <a>q</a>
//	q    ::= () | <a>q</a> | var | var/axis::ν | (q, ..., q)
//	       | (if cond then <a> else (), q, if cond then </a> else ())
//	       | for var in var/axis::ν return q
//	       | if cond then q else q
//	cond ::= true() | exists var/axis::ν | var/axis::ν RelOp string
//	       | var/axis::ν RelOp var/axis::ν | cond and cond
//	       | cond or cond | not cond
//	axis ::= child | descendant
//	ν    ::= a | * | text()
//
// As an engineering convenience the AST also carries literal text content in
// constructors (Text) and multi-step relative paths; the normalizer reduces
// surface queries to the fragment and validates the result.
package xqast

// Role identifies a buffer-management role (Section 2: "a role serves as a
// metaphor for the future relevance of a given node"). Roles are assigned by
// static analysis; role 0 is reserved and never used.
type Role int

// Axis is an XPath axis. The query fragment permits child and descendant
// axes; descendant-or-self additionally appears in projection paths and
// signOff paths (Section 2, "dos").
type Axis uint8

const (
	// Child is the XPath child axis.
	Child Axis = iota + 1
	// Descendant is the XPath descendant axis.
	Descendant
	// DescendantOrSelf ("dos") appears only in projection and signOff
	// paths, never in user queries.
	DescendantOrSelf
)

// String returns the axis in XPath notation.
func (a Axis) String() string {
	switch a {
	case Child:
		return "child"
	case Descendant:
		return "descendant"
	case DescendantOrSelf:
		return "dos"
	default:
		return "axis?"
	}
}

// TestKind classifies a node test ν.
type TestKind uint8

const (
	// TestName matches elements with a specific tag name.
	TestName TestKind = iota + 1
	// TestStar ("*") matches any element.
	TestStar
	// TestText ("text()") matches text nodes.
	TestText
	// TestNode ("node()") matches any node; used in projection paths
	// (dos::node()) and signOff paths.
	TestNode
)

// NodeTest is a node test ν: a tag name, "*", "text()", or "node()".
type NodeTest struct {
	Kind TestKind
	Name string // tag name when Kind == TestName
	// ID indexes Name in Query.Names once the query is resolved (see
	// Resolve); the evaluator matches on the symbol interned for it.
	ID int
}

// String renders the node test in XPath notation.
func (n NodeTest) String() string {
	switch n.Kind {
	case TestName:
		return n.Name
	case TestStar:
		return "*"
	case TestText:
		return "text()"
	case TestNode:
		return "node()"
	default:
		return "ν?"
	}
}

// NameTest returns a node test for a tag name.
func NameTest(name string) NodeTest { return NodeTest{Kind: TestName, Name: name} }

// StarTest returns the "*" node test.
func StarTest() NodeTest { return NodeTest{Kind: TestStar} }

// TextTest returns the "text()" node test.
func TextTest() NodeTest { return NodeTest{Kind: TestText} }

// NodeKindTest returns the "node()" node test.
func NodeKindTest() NodeTest { return NodeTest{Kind: TestNode} }

// Step is one location step axis::ν[predicate]. The only predicate in the
// fragment is position()=1 (First), used for existence checks (Section 2).
type Step struct {
	Axis  Axis
	Test  NodeTest
	First bool // [position()=1]
}

// String renders the step, e.g. "child::a", "dos::node()", "child::b[1]".
func (s Step) String() string {
	out := s.Axis.String() + "::" + s.Test.String()
	if s.First {
		out += "[1]"
	}
	return out
}

// Path is a variable-rooted path expression $x/step/step/... . An empty
// Steps slice denotes the bare variable $x (π = ε).
type Path struct {
	Var   string
	Steps []Step
	// Slot is Var's index in the evaluator's environment (see Resolve).
	Slot int
}

// String renders the path, e.g. "$x/child::a/dos::node()".
func (p Path) String() string {
	out := "$" + p.Var
	for _, s := range p.Steps {
		out += "/" + s.String()
	}
	return out
}

// Expr is an XQ expression (production q in Figure 6).
type Expr interface {
	isExpr()
}

// Empty is the empty sequence ().
type Empty struct{}

// Sequence is (q, ..., q). Normalization guarantees len(Items) >= 2 and no
// directly nested Sequences.
type Sequence struct {
	Items []Expr
}

// Element is the node constructor <a>q</a>.
type Element struct {
	Name  string
	Child Expr
}

// Text is literal character data inside a constructor. (Engineering
// extension; trivially expressible in XQuery as a text node constructor.)
type Text struct {
	Data string
}

// VarRef is the bare variable expression $x: the node bound to $x is copied
// to the output together with its complete subtree.
type VarRef struct {
	Var  string
	Slot int // Var's environment index (see Resolve)
}

// PathExpr is the output expression $x/axis::ν: all matching nodes are
// copied to the output with their subtrees, in document order.
type PathExpr struct {
	Path Path
}

// For is "for var in var/axis::ν return q".
type For struct {
	Var    string // bound variable, without '$'
	In     Path   // var-rooted path iterated over
	Return Expr
	Slot   int // Var's environment index (see Resolve)
	// Join is set by Resolve when the loop is an equality filter the
	// evaluator may answer from a probe table; nil otherwise.
	Join *Join
}

// Join describes a for-loop "for $v in $c/step return if (K = P) then X
// else ()" in which K, the operand the evaluator streams, is a path rooted
// at $v; P, the operand it collects, is a literal or a path that does not
// mention $v; and X executes no signOff. Skipping the bindings whose key
// values equal no probe value is then unobservable, so the evaluator may
// look the matching bindings up in a table keyed by K instead of
// comparing every binding (see DESIGN.md, "The probe table").
type Join struct {
	Table int     // numbers the query's join loops (Query.Joins)
	Cond  Compare // the body's condition, re-checked for every hit
	Key   Path    // K
	Probe Operand // P
	Then  Expr    // X
}

// If is "if cond then q else q".
type If struct {
	Cond Cond
	Then Expr
	Else Expr
}

// CondTag is the conditional unbalanced tag constructor produced by
// if-pushdown rule NC: "if cond then <a> else ()" (Open=true) or
// "if cond then </a> else ()" (Open=false). The paper's grammar requires the
// two conditions of a matching pair to be syntactically equal so output
// remains well-formed.
type CondTag struct {
	Cond Cond
	Name string
	Open bool
}

// SignOff is the internal statement signOff($x/π, r): all nodes reachable
// from the binding of $x via π lose one instance of role r, triggering
// active garbage collection (Sections 3-5).
type SignOff struct {
	Path Path
	Role Role
}

func (Empty) isExpr()    {}
func (Sequence) isExpr() {}
func (Element) isExpr()  {}
func (Text) isExpr()     {}
func (VarRef) isExpr()   {}
func (PathExpr) isExpr() {}
func (For) isExpr()      {}
func (If) isExpr()       {}
func (CondTag) isExpr()  {}
func (SignOff) isExpr()  {}

// RelOp is a comparison operator.
type RelOp uint8

const (
	OpEq RelOp = iota + 1
	OpNe       // extension: != (not in Figure 6, supported for convenience)
	OpLt
	OpLe
	OpGt
	OpGe
)

// String renders the operator in XQuery general-comparison syntax.
func (op RelOp) String() string {
	switch op {
	case OpEq:
		return "="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	default:
		return "op?"
	}
}

// Cond is a condition (production cond in Figure 6).
type Cond interface {
	isCond()
}

// TrueCond is true().
type TrueCond struct{}

// Exists is "exists($x/axis::ν)".
type Exists struct {
	Path Path
}

// Operand is one side of a comparison: either a path or a string literal.
type Operand struct {
	IsLiteral bool
	Lit       string // literal value when IsLiteral
	Path      Path   // path otherwise
}

// String renders the operand.
func (o Operand) String() string {
	if o.IsLiteral {
		return "\"" + o.Lit + "\""
	}
	return o.Path.String()
}

// Compare is "χ RelOp χ" where at least one side is a path (the fragment
// requires a path on at least one side).
type Compare struct {
	LHS Operand
	Op  RelOp
	RHS Operand
	// Site numbers the comparison within its query (see Resolve): the
	// evaluator keeps the collected operand per site.
	Site int
}

// And is "cond and cond".
type And struct{ L, R Cond }

// Or is "cond or cond".
type Or struct{ L, R Cond }

// Not is "not cond".
type Not struct{ C Cond }

func (TrueCond) isCond() {}
func (Exists) isCond()   {}
func (Compare) isCond()  {}
func (And) isCond()      {}
func (Or) isCond()       {}
func (Not) isCond()      {}

// Query is a full XQ query: a root element constructor with the single free
// variable $root (Section 3).
type Query struct {
	Root Element

	// Filled by Resolve, zero before: the tag names of the query's name
	// tests (NodeTest.ID indexes it), the number of variable slots
	// (RootVar is slot 0), the number of comparison sites, and the number
	// of join loops.
	Names []string
	Slots int
	Sites int
	Joins int
}

// RootVar is the name of the distinguished root variable (without '$').
const RootVar = "root"
