package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// A rule is one row of the spine floor, numbered as DESIGN.md, code comments
// and `make seed-audit rule N` cite it. Numbers are stable: 7 is retired
// (its wall-clock ban is rule 9's), and a rule whose halves differ in scope
// has a row for each. A rule reads the non-test files its scope covers:
// module-relative patterns, "p" for package p's files, "p/..." for those
// under p, "f.go" for one, "!" to exclude; with no positive one, every file.
type rule struct {
	n     int
	scope string
	why   string // the reason, printed with each finding
	// ban lists what no file in scope may name: "path.Name" for a
	// package-level object, "import path" (path/... for a tree); internal/
	// starts a path in the module.
	ban []string
	// check, if set, sees every node in scope in order, then nil.
	check func(p *pass, n ast.Node)
}

var rules = []rule{
	{n: 1, why: "draw from a labeled dist.Stream: dist's generator and samplers are fixed by this repository, not by the Go release",
		ban: []string{"import math/rand", "import math/rand/v2"}},
	{n: 2, scope: "!internal/dist", why: "the integer-seed constructors are dist-internal: build a distribution with a dist.*From constructor on a labeled sub-stream",
		ban: []string{"internal/dist.NewNormal", "internal/dist.NewLogNormal", "internal/dist.NewBernoulli"}},
	{n: 3, scope: "!internal/dist !internal/experiments/... !cmd/... !examples/...", why: "stream roots are born only where experiments are: a library accepts a *dist.Stream",
		ban: []string{"internal/dist.NewStream"}},
	// Rules 4 and 8 follow every static call out of a Compute body, into
	// module functions and concrete methods of any package. A call through
	// a func value or an interface has no body to follow and is not checked.
	{n: 4, why: "a Compute body is pure CPU: a clock read, a modeled sleep, a stream draw or a data-service call there happens off the executor token",
		check: func(p *pass, n ast.Node) {
			impure := func(obj types.Object) bool { // the clock, streams, the data service, and a task context's doors to them
				return obj != nil && obj.Pkg() != nil && (slices.Contains([]string{p.pkg("internal/vclock"), p.pkg("internal/dist"), p.pkg("internal/data")}, obj.Pkg().Path()) ||
					p.is(obj, "internal/core.DataService", "internal/core.Data", "internal/core.Sleep", "internal/core.Stream", "internal/core.Compute"))
			}
			p.compute(n, func(obj types.Object) bool {
				switch o := obj.(type) {
				case *types.Func: // one of them, wall time, a method of one, or a call handing one out
					sig := o.Type().(*types.Signature)
					return impure(o) || o.Parent() != nil && p.is(o, wallClock...) || sig.Recv() != nil && impure(named(sig.Recv().Type())) ||
						sig.Results().Len() == 1 && impure(named(sig.Results().At(0).Type()))
				case *types.Var: // a field holding one
					return o.IsField() && (impure(o) || impure(named(o.Type())))
				}
				return false
			})
		}},
	{n: 5, scope: "internal/streaming/...", why: "map iteration order is random and would decide wake-up and publish order: keep partition, worker and topic state in slices",
		check: func(p *pass, n ast.Node) {
			if r, ok := n.(*ast.RangeStmt); ok {
				if _, isMap := p.info.TypeOf(r.X).Underlying().(*types.Map); isMap {
					p.report(r.X.Pos(), "ranges over a map")
				}
			}
		}},
	{n: 6, scope: "internal/plan/...", why: "the planner computes instants from its arguments and the manager waits: a clock here could block under the manager's lock",
		ban: []string{"import internal/vclock"}},
	{n: 8, why: "reused scratch is fetched on-token before Compute and released after the rejoin: a pool or free list in a kernel races the release",
		check: func(p *pass, n ast.Node) {
			reuse := func(t types.Type) bool { return p.is(named(t), "sync.Pool", "sync.Mutex") }
			p.compute(n, func(obj types.Object) bool {
				switch o := obj.(type) {
				case *types.Func: // a pool's method
					recv := o.Type().(*types.Signature).Recv()
					return recv != nil && p.is(named(recv.Type()), "sync.Pool")
				case *types.Var: // a pool or a lock (a free list's), or a struct holding one
					s, _ := o.Type().Underlying().(*types.Struct)
					for i := 0; s != nil && i < s.NumFields(); i++ {
						if reuse(s.Field(i).Type()) {
							return true
						}
					}
					return reuse(o.Type())
				}
				return false
			})
		}},
	// Allowed: E11's two host-milliseconds reads, wallStart := time.Now() and
	// time.Since(wallStart) in exp_loop.go, the one exhibit column that
	// reports host time (make exhibit-digest filters it out).
	{n: 9, scope: "internal/... examples/...", why: "there is one clock, the component's vclock.Clock: wall time beside it is a second, nondeterministic one",
		ban: wallClock, check: func(p *pass, n ast.Node) {
			wallStart := func(e ast.Expr) bool {
				id, ok := e.(*ast.Ident)
				return ok && id.Name == "wallStart" && p.file == "internal/experiments/exp_loop.go"
			}
			switch x := n.(type) {
			case *ast.AssignStmt:
				if call, ok := x.Rhs[0].(*ast.CallExpr); ok && x.Tok == token.DEFINE && len(x.Lhs) == 1 && wallStart(x.Lhs[0]) && p.is(p.callee(call), "time.Now") {
					p.skip = call.Fun
				}
			case *ast.CallExpr:
				if len(x.Args) == 1 && wallStart(x.Args[0]) && p.is(p.callee(x), "time.Since") {
					p.skip = x.Fun
				}
			}
		}},
	// The Broker alias survives for the frozen cmd/bench alone (delete with
	// ROADMAP item 1): only it and the alias's file may name the alias or
	// hold a type that forwards to the Cluster. Neither may assert one.
	{n: 10, why: "Cluster is the one Bus and a deployment is its configuration: the single broker is NewCluster(ClusterConfig{Shards: 1, Replication: 1})",
		ban: []string{"internal/streaming.NewBroker", "internal/streaming.BrokerConfig", "internal/streaming.Broker"},
		check: func(p *pass, n ast.Node) {
			u := p.units[p.pkg("internal/streaming")]
			if u == nil || u.pkg == nil || u.pkg.Scope().Lookup("Bus") == nil {
				return
			}
			bus, cluster := u.pkg.Scope().Lookup("Bus").Type().Underlying().(*types.Interface), types.NewPointer(u.pkg.Scope().Lookup("Cluster").Type())
			frozen := strings.HasPrefix(p.file, "cmd/bench/") || p.file == "internal/streaming/broker.go"
			if frozen {
				p.skip = n // exempt from the ban
			}
			switch x := n.(type) {
			case *ast.TypeSpec:
				t, _ := p.info.Defs[x.Name].(*types.TypeName)
				if !frozen && t != nil && !t.IsAlias() && !types.IsInterface(t.Type()) && !types.Identical(types.NewPointer(t.Type()), cluster) &&
					(types.Implements(t.Type(), bus) || types.Implements(types.NewPointer(t.Type()), bus)) {
					p.report(x.Pos(), t.Name()+" implements Bus")
				}
			case *ast.ValueSpec:
				for _, v := range x.Values {
					if t := p.info.TypeOf(v); x.Type != nil && types.Identical(p.info.TypeOf(x.Type).Underlying(), bus) && !types.IsInterface(t) && !types.Identical(t, cluster) {
						p.report(v.Pos(), "asserts that "+t.String()+" is a Bus")
					}
				}
			}
		}},
	{n: 11, scope: "internal/streaming/partition.go internal/streaming/log.go", why: "a replica log has no lock of its own: Cluster.mu guards every copy",
		ban: []string{"sync.Mutex", "sync.RWMutex"}},
	{n: 11, scope: "internal/streaming/cluster.go internal/streaming/cluster_bus.go internal/streaming/broker.go", why: "Cluster.mu is the broker side's one lock: a second lock level needs code to bridge the two",
		check: func(p *pass, n ast.Node) { p.locks(n, 1, 1, true) }},
	{n: 12, scope: "internal/core/pilot.go internal/core/unit.go", why: "a pilot or a unit has no lock of its own: Manager.mu guards every pilot and unit field",
		ban: []string{"sync.Mutex", "sync.RWMutex"}},
	{n: 12, scope: "internal/core", why: "Manager.mu is the pilot manager's one lock, so each flow acts on what it read in one critical section",
		check: func(p *pass, n ast.Node) { p.locks(n, 1, 1, true) }},
	{n: 13, scope: "internal/saga/...", why: "each backend implements saga.Service itself: an adaptor over one is a second job state machine",
		ban: []string{"import internal/infra/..."}},
	// The seven: hpc, htc, cloud, yarn, serverless, saga.LocalService and
	// saga.Registry. A *sync.Mutex refers to another's lock; it declares none.
	{n: 13, scope: "internal/infra/... internal/saga/...", why: "a backend guards its jobs with its one mutex: a job, VM, container or glidein lock is a second lock level",
		check: func(p *pass, n ast.Node) {
			p.locks(n, 0, 7, false)
			if ts, ok := n.(*ast.TypeSpec); ok && slices.ContainsFunc([]string{"job", "vm", "instance", "container", "glidein"}, func(s string) bool { return strings.Contains(strings.ToLower(ts.Name.Name), s) }) {
				ast.Inspect(ts.Type, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok && p.is(p.info.Uses[id], "sync.Mutex", "sync.RWMutex") {
						p.report(id.Pos(), ts.Name.Name+" declares its own lock")
					}
					_, star := n.(*ast.StarExpr)
					return !star
				})
			}
		}},
	{n: 14, scope: "internal/infra/... internal/saga/...", why: "a per-job context is the clock's cancel scope: only New mints the standard, service-lifetime one its jobs hang under",
		ban: []string{"context.WithCancel", "context.WithTimeout", "context.WithDeadline"},
		check: func(p *pass, n ast.Node) {
			if fd, ok := n.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.Name == "New" {
				p.skip = fd
			}
		}},
	{n: 15, scope: "internal/core internal/plan", why: "the unit behind a plan.UnitSpec is Manager.units[Ordinal-1], and the planner indexes its records the same way",
		check: func(p *pass, n ast.Node) {
			if x, ok := n.(*ast.MapType); ok {
				if m, ok := p.info.TypeOf(x).(*types.Map); ok && types.Identical(m.Key().Underlying(), types.Typ[types.String]) && p.is(named(m.Elem()), "internal/core.ComputeUnit", "internal/plan.unitRec") {
					p.report(x.Pos(), "keys "+named(m.Elem()).Name()+" by unit ID")
				}
			}
		}},
	{n: 16, scope: "internal/vclock", why: "a park waits on its grant alone: watching the context too costs a sudog per park, and a stall's watchers carry outside cancellations",
		check: func(p *pass, n ast.Node) {
			if x, ok := n.(*ast.UnaryExpr); ok && x.Op == token.ARROW {
				if sel, ok := x.X.(*ast.SelectorExpr); ok && sel.Sel.Name == "done" && p.is(named(p.info.TypeOf(sel.X)), "internal/vclock.parker") {
					p.report(x.Pos(), "receives from a record's done")
				}
			}
		}},
	{n: 17, scope: "internal/experiments/... !internal/experiments/exhibits.go", why: "an exhibit's seed is written once, in its experiments.Exhibits entry: a later testbed derives its seed from it (seed+1, seed+100+n)",
		check: func(p *pass, n ast.Node) {
			switch x := n.(type) {
			case *ast.KeyValueExpr:
				if v, ok := p.info.Uses[identOf(x.Key)].(*types.Var); ok && v.IsField() && v.Name() == "Seed" && p.info.Types[x.Value].Value != nil {
					p.report(x.Pos(), "writes a constant Seed")
				}
			case *ast.CallExpr:
				if p.is(p.callee(x), "internal/dist.NewStream") && len(x.Args) == 1 && p.info.Types[x.Args[0]].Value != nil {
					p.report(x.Pos(), "roots a stream at a constant seed")
				}
			}
		}},
	{n: 18, scope: "internal/streaming", why: "plan.Replicas decides replication through its methods (Ack, Fail, Round, PlaceReplicas), which the model checker drives: a cluster that edits the set is a second policy",
		check: func(p *pass, n ast.Node) {
			var written []ast.Expr
			if x, ok := n.(*ast.AssignStmt); ok && x.Tok != token.DEFINE {
				written = x.Lhs
			} else if x, ok := n.(*ast.IncDecStmt); ok {
				written = []ast.Expr{x.X}
			}
			for _, e := range written {
				for ix, ok := ast.Unparen(e).(*ast.IndexExpr); ok; ix, ok = ast.Unparen(e).(*ast.IndexExpr) {
					e = ix.X
				}
				v, _ := p.info.Uses[identOf(ast.Unparen(e))].(*types.Var)
				if replicas := p.units[p.pkg("internal/plan")].pkg.Scope().Lookup("Replicas").Type(); v != nil && v.IsField() {
					if f, _, _ := types.LookupFieldOrMethod(replicas, false, v.Pkg(), v.Name()); f == v || types.Identical(v.Type(), replicas) {
						p.report(e.Pos(), "writes plan.Replicas field "+v.Name())
					}
				}
			}
		}},
	{n: 19, scope: "!cmd/bench/...", why: "chaos.Checker's OnCommit and OnAcked are the one implementation of the cursor and watermark contracts: a hand-written hook is a copy that drifts",
		check: func(p *pass, n ast.Node) {
			if kv, ok := n.(*ast.KeyValueExpr); ok {
				if _, lit := ast.Unparen(kv.Value).(*ast.FuncLit); lit && p.is(p.info.Uses[identOf(kv.Key)], "internal/streaming.OnCommit", "internal/streaming.OnAcked") {
					p.report(kv.Pos(), identOf(kv.Key).Name+" is a func literal")
				}
			}
		}},
}

// wallClock bans the time functions that read or wait on the host's clock.
var wallClock = []string{"time.Now", "time.Since", "time.Sleep", "time.After", "time.AfterFunc", "time.NewTimer", "time.NewTicker", "time.Tick"}

// A pass applies one rule.
type pass struct {
	*linter
	r     *rule
	file  string    // the file being walked, module-relative
	skip  ast.Node  // a check's exemption from the ban: the last it set, while within it
	end   token.Pos // the last file's package name: where a short count is reported
	count int
	out   []string
}

// spine applies every rule to the non-test files of the packages at paths.
func (l *linter) spine(paths []string) []string {
	var out []string
	for i := range rules {
		p := &pass{linter: l, r: &rules[i]}
		for _, path := range paths {
			for _, f := range l.units[path].src {
				if p.file = l.rel(f.Pos()); p.r.covers(p.file) {
					p.end = f.Name.Pos()
					ast.Inspect(f, p.visit)
				}
			}
		}
		if p.r.check != nil {
			p.r.check(p, nil)
		}
		out = append(out, p.out...)
	}
	return out
}

func (p *pass) visit(n ast.Node) bool {
	if n != nil && p.r.check != nil {
		p.r.check(p, n)
	}
	switch x := n.(type) {
	case *ast.ImportSpec:
		if path, _ := strconv.Unquote(x.Path.Value); p.match("import "+path, p.r.ban...) {
			p.report(x.Pos(), "imports "+path)
		}
	case *ast.Ident:
		if obj := p.info.Uses[x]; obj != nil && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() && !p.skipped(x) && p.is(obj, p.r.ban...) {
			p.report(x.Pos(), "names "+obj.Pkg().Name()+"."+obj.Name())
		}
	}
	return true
}

// match reports whether key is one of names, each written as in rule.ban.
func (p *pass) match(key string, names ...string) bool {
	return slices.ContainsFunc(names, func(b string) bool {
		b = strings.Replace(b, "internal/", p.mod+"/internal/", 1)
		tree, ok := strings.CutSuffix(b, "...")
		return b == key || ok && strings.HasPrefix(key, tree)
	})
}

// is reports whether obj is one of names, each written path.Name.
func (p *pass) is(obj types.Object, names ...string) bool {
	return obj != nil && obj.Pkg() != nil && p.match(obj.Pkg().Path()+"."+obj.Name(), names...)
}

func (p *pass) skipped(n ast.Node) bool {
	return p.skip != nil && p.skip.Pos() <= n.Pos() && n.End() <= p.skip.End()
}

func (r *rule) covers(file string) bool {
	positive, hit := false, false
	for _, pat := range strings.Fields(r.scope) {
		pat, not := strings.CutPrefix(pat, "!")
		tree, isTree := strings.CutSuffix(pat, "/...")
		m := file == pat || path.Dir(file) == pat || isTree && strings.HasPrefix(file, tree+"/")
		if not && m {
			return false
		}
		positive, hit = positive || !not, hit || !not && m
	}
	return !positive || hit
}

func (p *pass) report(pos token.Pos, detail string) {
	p.out = append(p.out, fmt.Sprintf("doclint: rule %d: %s:%d: %s — %s", p.r.n, p.rel(pos), fset.Position(pos).Line, detail, p.r.why))
}

// locks counts the sync.Mutex and sync.RWMutex types the files name —
// behind a pointer only if refs — and reports each past the most-th and,
// at the end, a count short of least.
func (p *pass) locks(n ast.Node, least, most int, refs bool) {
	switch x := n.(type) {
	case nil:
		if p.count < least && p.end.IsValid() {
			p.report(p.end, fmt.Sprintf("names %d locks, not %d", p.count, least))
		}
	case *ast.StarExpr:
		p.skip = x
	case *ast.Ident:
		if p.is(p.info.Uses[x], "sync.Mutex", "sync.RWMutex") && (refs || !p.skipped(x)) {
			if p.count++; p.count > most {
				p.report(x.Pos(), fmt.Sprintf("lock #%d where the rule allows %d", p.count, most))
			}
		}
	}
}

// compute reports n if it is a Compute call whose function arguments reach
// an object bad accepts (reach).
func (p *pass) compute(n ast.Node, bad func(types.Object) bool) {
	call, ok := n.(*ast.CallExpr)
	if !ok || p.callee(call) == nil || p.callee(call).Name() != "Compute" {
		return
	}
	seen := map[*types.Func]bool{}
	for _, arg := range call.Args {
		if _, isFunc := p.info.TypeOf(arg).Underlying().(*types.Signature); isFunc {
			if id, obj := p.reach(arg, bad, seen); obj != nil {
				p.report(call.Pos(), fmt.Sprintf("Compute body reaches %s.%s at %s:%d", obj.Pkg().Name(), obj.Name(), p.rel(id.Pos()), fset.Position(id.Pos()).Line))
			}
		}
	}
}

// reach walks n and, transitively, the body of every module function or
// concrete method it names, each once; it returns the first identifier
// whose object bad accepts.
func (l *linter) reach(n ast.Node, bad func(types.Object) bool, seen map[*types.Func]bool) (hit *ast.Ident, obj types.Object) {
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && obj == nil && l.info.Uses[id] != nil {
			fn, _ := l.info.Uses[id].(*types.Func)
			if fn != nil {
				fn = fn.Origin() // an instantiated generic function's body is its origin's
			}
			if bad(l.info.Uses[id]) {
				hit, obj = id, l.info.Uses[id]
			} else if body := l.bodies[fn]; body != nil && !seen[fn] {
				seen[fn] = true
				hit, obj = l.reach(body, bad, seen)
			}
		}
		return obj == nil
	})
	return hit, obj
}

func (l *linter) pkg(rel string) string { return l.mod + "/" + rel }

// rel is the module-relative path of the file holding pos.
func (l *linter) rel(pos token.Pos) string {
	rel, _ := filepath.Rel(l.root, fset.Position(pos).Filename)
	return filepath.ToSlash(rel)
}

// callee is the function or method call names, or nil.
func (p *pass) callee(call *ast.CallExpr) types.Object {
	return p.info.Uses[identOf(ast.Unparen(call.Fun))]
}

// identOf is e's identifier, or its selector's, or nil.
func identOf(e ast.Expr) *ast.Ident {
	switch x := e.(type) {
	case *ast.Ident:
		return x
	case *ast.SelectorExpr:
		return x.Sel
	}
	return nil
}

// named is the type name behind t, through one pointer, or nil.
func named(t types.Type) types.Object {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj()
	}
	return nil
}
