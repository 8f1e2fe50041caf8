package lint

import (
	"fmt"
	"go/ast"
	"go/token"
)

// This file builds intra-procedural control-flow graphs over go/ast, with no
// type information required (so the builder is also fuzzable over arbitrary
// parseable sources). A CFG is a set of basic blocks connected by directed
// edges; branch edges carry their condition expression so dataflow problems
// can refine facts along the true/false arms (EdgeOut in dataflow.go).
//
// Statements are appended to blocks in source order. Structured statements
// contribute their scaffolding expressions (an if condition, a switch tag, a
// range operand) to the block that evaluates them, and their bodies become
// successor blocks. Terminators — return, goto, break, continue, panic — end
// the current block; code after a terminator starts a fresh, predecessor-less
// block so analyses still see it (it is simply unreachable from Entry).

// EdgeKind classifies a CFG edge.
type EdgeKind uint8

const (
	// EdgeNext is unconditional flow (fallthrough between blocks, jumps).
	EdgeNext EdgeKind = iota
	// EdgeTrue is the branch taken when the edge's Cond evaluates true.
	EdgeTrue
	// EdgeFalse is the branch taken when the edge's Cond evaluates false.
	// Loop exits of `for cond` and range exhaustion use EdgeFalse too
	// (range edges carry a nil Cond).
	EdgeFalse
)

func (k EdgeKind) String() string {
	switch k {
	case EdgeTrue:
		return "true"
	case EdgeFalse:
		return "false"
	default:
		return "next"
	}
}

// Edge is one directed control-flow edge. Cond is the branch condition for
// EdgeTrue/EdgeFalse edges where one exists syntactically (nil for range
// iteration edges and select dispatch).
type Edge struct {
	From, To *Block
	Kind     EdgeKind
	Cond     ast.Expr
}

// Block is one basic block: a maximal straight-line sequence of AST nodes.
// Nodes holds statements and scaffolding expressions in evaluation order.
type Block struct {
	Index int
	Nodes []ast.Node
	Succs []*Edge
	Preds []*Edge
}

// CFG is the control-flow graph of one function body. Entry is the first
// block executed; Exit is a synthetic empty block every return (and the
// falling-off-the-end path) edges into. Panics also edge to Exit: for the
// forward analyses built on top, "function aborts" and "function returns"
// need no distinction.
type CFG struct {
	Blocks []*Block
	Entry  *Block
	Exit   *Block
}

// BuildCFG constructs the CFG of a function body. fn must be an
// *ast.FuncDecl or *ast.FuncLit with a non-nil body; nested function
// literals are treated as opaque values (their bodies get their own CFGs via
// separate BuildCFG calls).
func BuildCFG(fn ast.Node) *CFG {
	var body *ast.BlockStmt
	switch fn := fn.(type) {
	case *ast.FuncDecl:
		body = fn.Body
	case *ast.FuncLit:
		body = fn.Body
	default:
		panic(fmt.Sprintf("lint: BuildCFG on %T", fn))
	}
	if body == nil {
		panic("lint: BuildCFG on function without body")
	}
	b := &cfgBuilder{cfg: &CFG{}, labels: make(map[string]*Block)}
	b.cfg.Entry = b.newBlock()
	b.cfg.Exit = b.newBlock()
	b.cur = b.cfg.Entry
	b.stmtList(body.List)
	if b.cur != nil {
		b.edge(b.cur, b.cfg.Exit, EdgeNext, nil)
	}
	return b.cfg
}

// cfgBuilder carries the construction state. cur is the block under
// construction, or nil when the current program point is unreachable (just
// after a terminator); use() starts a fresh dead block in that case so
// trailing statements are still represented.
type cfgBuilder struct {
	cfg *CFG
	cur *Block

	// breakables/continuables are the enclosing targets for break and
	// continue, innermost last. A frame's label is non-empty when the
	// construct was directly labeled.
	breakables   []jumpTarget
	continuables []jumpTarget

	// labels maps label names to their blocks, created eagerly on the first
	// of goto/label encountered so forward gotos resolve.
	labels map[string]*Block

	// pendingLabel is set by a LabeledStmt wrapping a for/range/switch/
	// select, consumed by that statement's builder.
	pendingLabel string
}

type jumpTarget struct {
	label  string
	target *Block
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *Block, kind EdgeKind, cond ast.Expr) {
	e := &Edge{From: from, To: to, Kind: kind, Cond: cond}
	from.Succs = append(from.Succs, e)
	to.Preds = append(to.Preds, e)
}

// use returns the current block, starting a fresh unreachable one if the
// previous statement was a terminator.
func (b *cfgBuilder) use() *Block {
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	return b.cur
}

func (b *cfgBuilder) labelBlock(name string) *Block {
	if blk, ok := b.labels[name]; ok {
		return blk
	}
	blk := b.newBlock()
	b.labels[name] = blk
	return blk
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// findJump resolves a break/continue target: the innermost frame, or the
// frame with the matching label.
func findJump(frames []jumpTarget, label string) *Block {
	for i := len(frames) - 1; i >= 0; i-- {
		if label == "" || frames[i].label == label {
			return frames[i].target
		}
	}
	return nil
}

// isPanicCall matches the builtin panic syntactically (no type info needed;
// a user-shadowed panic would be misclassified as a terminator, which only
// makes the following code conservatively unreachable).
func isPanicCall(s ast.Stmt) bool {
	es, ok := s.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := ast.Unparen(es.X).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	// A label pending from an enclosing LabeledStmt only applies to the
	// statement it directly wraps; anything else consumes it unnamed.
	label := b.pendingLabel
	b.pendingLabel = ""

	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.LabeledStmt:
		lb := b.labelBlock(s.Label.Name)
		if b.cur != nil {
			b.edge(b.cur, lb, EdgeNext, nil)
		}
		b.cur = lb
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)

	case *ast.IfStmt:
		if s.Init != nil {
			b.use().Nodes = append(b.use().Nodes, s.Init)
		}
		cond := b.use()
		cond.Nodes = append(cond.Nodes, s.Cond)
		then := b.newBlock()
		b.edge(cond, then, EdgeTrue, s.Cond)
		after := b.newBlock()
		b.cur = then
		b.stmtList(s.Body.List)
		if b.cur != nil {
			b.edge(b.cur, after, EdgeNext, nil)
		}
		if s.Else != nil {
			els := b.newBlock()
			b.edge(cond, els, EdgeFalse, s.Cond)
			b.cur = els
			b.stmt(s.Else)
			if b.cur != nil {
				b.edge(b.cur, after, EdgeNext, nil)
			}
		} else {
			b.edge(cond, after, EdgeFalse, s.Cond)
		}
		b.cur = after

	case *ast.ForStmt:
		if s.Init != nil {
			b.use().Nodes = append(b.use().Nodes, s.Init)
		}
		head := b.newBlock()
		b.edge(b.use(), head, EdgeNext, nil)
		body := b.newBlock()
		after := b.newBlock()
		if s.Cond != nil {
			head.Nodes = append(head.Nodes, s.Cond)
			b.edge(head, body, EdgeTrue, s.Cond)
			b.edge(head, after, EdgeFalse, s.Cond)
		} else {
			b.edge(head, body, EdgeNext, nil) // for {}: after only via break
		}
		cont := head
		var post *Block
		if s.Post != nil {
			post = b.newBlock()
			post.Nodes = append(post.Nodes, s.Post)
			b.edge(post, head, EdgeNext, nil)
			cont = post
		}
		b.breakables = append(b.breakables, jumpTarget{label, after})
		b.continuables = append(b.continuables, jumpTarget{label, cont})
		b.cur = body
		b.stmtList(s.Body.List)
		if b.cur != nil {
			b.edge(b.cur, cont, EdgeNext, nil)
		}
		b.breakables = b.breakables[:len(b.breakables)-1]
		b.continuables = b.continuables[:len(b.continuables)-1]
		b.cur = after

	case *ast.RangeStmt:
		head := b.newBlock()
		b.edge(b.use(), head, EdgeNext, nil)
		// The RangeStmt node itself stands for the iteration step: the
		// operand read and the per-iteration key/value assignment.
		head.Nodes = append(head.Nodes, s)
		body := b.newBlock()
		after := b.newBlock()
		b.edge(head, body, EdgeTrue, nil)
		b.edge(head, after, EdgeFalse, nil)
		b.breakables = append(b.breakables, jumpTarget{label, after})
		b.continuables = append(b.continuables, jumpTarget{label, head})
		b.cur = body
		b.stmtList(s.Body.List)
		if b.cur != nil {
			b.edge(b.cur, head, EdgeNext, nil)
		}
		b.breakables = b.breakables[:len(b.breakables)-1]
		b.continuables = b.continuables[:len(b.continuables)-1]
		b.cur = after

	case *ast.SwitchStmt:
		if s.Init != nil {
			b.use().Nodes = append(b.use().Nodes, s.Init)
		}
		head := b.use()
		if s.Tag != nil {
			head.Nodes = append(head.Nodes, s.Tag)
		}
		b.switchClauses(head, s.Body.List, label, true)

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.use().Nodes = append(b.use().Nodes, s.Init)
		}
		head := b.use()
		head.Nodes = append(head.Nodes, s.Assign)
		b.switchClauses(head, s.Body.List, label, false)

	case *ast.SelectStmt:
		head := b.use()
		after := b.newBlock()
		b.breakables = append(b.breakables, jumpTarget{label, after})
		for _, cl := range s.Body.List {
			cc := cl.(*ast.CommClause)
			blk := b.newBlock()
			b.edge(head, blk, EdgeNext, nil)
			if cc.Comm != nil {
				blk.Nodes = append(blk.Nodes, cc.Comm)
			}
			b.cur = blk
			b.stmtList(cc.Body)
			if b.cur != nil {
				b.edge(b.cur, after, EdgeNext, nil)
			}
		}
		// A select{} with no clauses blocks forever: head gets no
		// successors, and after is unreachable — which is exact.
		b.breakables = b.breakables[:len(b.breakables)-1]
		b.cur = after

	case *ast.ReturnStmt:
		cur := b.use()
		cur.Nodes = append(cur.Nodes, s)
		b.edge(cur, b.cfg.Exit, EdgeNext, nil)
		b.cur = nil

	case *ast.BranchStmt:
		cur := b.use()
		labelName := ""
		if s.Label != nil {
			labelName = s.Label.Name
		}
		switch s.Tok {
		case token.BREAK:
			if t := findJump(b.breakables, labelName); t != nil {
				b.edge(cur, t, EdgeNext, nil)
			}
			b.cur = nil
		case token.CONTINUE:
			if t := findJump(b.continuables, labelName); t != nil {
				b.edge(cur, t, EdgeNext, nil)
			}
			b.cur = nil
		case token.GOTO:
			b.edge(cur, b.labelBlock(labelName), EdgeNext, nil)
			b.cur = nil
		case token.FALLTHROUGH:
			// Handled structurally by switchClauses (the clause end falls
			// into the next clause body); nothing to record here.
		}

	default:
		cur := b.use()
		cur.Nodes = append(cur.Nodes, s)
		if isPanicCall(s) {
			b.edge(cur, b.cfg.Exit, EdgeNext, nil)
			b.cur = nil
		}
	}
}

// switchClauses wires the shared clause structure of switch and type switch:
// every clause body is a successor of head; a missing default adds a direct
// head→after edge; fallthrough (expression switches only) chains a clause
// end into the next clause's body.
func (b *cfgBuilder) switchClauses(head *Block, clauses []ast.Stmt, label string, allowFallthrough bool) {
	after := b.newBlock()
	b.breakables = append(b.breakables, jumpTarget{label, after})

	blocks := make([]*Block, len(clauses))
	hasDefault := false
	for i, cl := range clauses {
		cc := cl.(*ast.CaseClause)
		blocks[i] = b.newBlock()
		b.edge(head, blocks[i], EdgeNext, nil)
		if cc.List == nil {
			hasDefault = true
		}
		// Case guard expressions are evaluated while dispatching.
		for _, e := range cc.List {
			head.Nodes = append(head.Nodes, e)
		}
	}
	if !hasDefault {
		b.edge(head, after, EdgeNext, nil)
	}
	for i, cl := range clauses {
		cc := cl.(*ast.CaseClause)
		b.cur = blocks[i]
		b.stmtList(cc.Body)
		if b.cur != nil {
			if allowFallthrough && endsInFallthrough(cc.Body) && i+1 < len(blocks) {
				b.edge(b.cur, blocks[i+1], EdgeNext, nil)
			} else {
				b.edge(b.cur, after, EdgeNext, nil)
			}
			b.cur = nil
		}
	}
	b.breakables = b.breakables[:len(b.breakables)-1]
	b.cur = after
}

func endsInFallthrough(body []ast.Stmt) bool {
	if len(body) == 0 {
		return false
	}
	bs, ok := body[len(body)-1].(*ast.BranchStmt)
	return ok && bs.Tok == token.FALLTHROUGH
}
