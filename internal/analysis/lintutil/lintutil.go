// Package lintutil holds the small amount of machinery shared by the
// dualvdd analyzers: //lint:<directive> suppression comments, the
// determinism-critical package scope, and lock-type detection.
package lintutil

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"

	"dualvdd/internal/analysis"
)

// Critical matches the import paths where the determinism contract applies:
// the root orchestration package (Flow/Batch/Sweep/Runner), the algorithm
// path (core/sim/sta/netlist), the golden-pinned report writers, and the
// fleet hash ring. The /testdata/src/ alternative keeps analyzer testdata
// packages in scope so the analysistest suites and the acceptance run
// (`dualvdd-lint ./internal/analysis/passes/<p>/testdata/src/<pkg>`)
// exercise the same code path as the real packages.
var Critical = regexp.MustCompile(`^dualvdd$|^dualvdd/(internal/(core|sim|sta|netlist|report)|fleet)$|/testdata/src/`)

// InScope reports whether the pass's package import path matches re.
func InScope(re *regexp.Regexp, pass *analysis.Pass) bool {
	return re.MatchString(pass.Pkg.Path())
}

// Suppressed reports whether the line of pos (or the line just above it)
// carries a `//lint:<directive> <reason>` comment. The reason is mandatory:
// a bare directive with no justification does not suppress, so every
// deliberate exception in the tree documents why it is safe.
func Suppressed(pass *analysis.Pass, pos token.Pos, directive string) bool {
	file := pass.FileOf(pos)
	if file == nil {
		return false
	}
	line := pass.Fset.Position(pos).Line
	want := "lint:" + directive
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			text = strings.TrimSpace(text)
			if !strings.HasPrefix(text, want) {
				continue
			}
			reason := strings.TrimPrefix(text, want)
			if reason == "" || strings.TrimSpace(reason) == "" || !strings.HasPrefix(reason, " ") {
				continue // no reason given, or a longer directive name
			}
			cline := pass.Fset.Position(c.Pos()).Line
			if cline == line || cline == line-1 {
				return true
			}
		}
	}
	return false
}

// FuncHasCtxParam reports whether fn's type (FuncDecl or FuncLit) declares a
// parameter of type context.Context.
func FuncHasCtxParam(info *types.Info, ft *ast.FuncType) bool {
	if ft == nil || ft.Params == nil {
		return false
	}
	for _, f := range ft.Params.List {
		if IsContextType(info.TypeOf(f.Type)) {
			return true
		}
	}
	return false
}

// IsContextType reports whether t is context.Context.
func IsContextType(t types.Type) bool {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// ContainsLock reports whether a value of type t, copied by value, would
// copy a lock: t is (or transitively contains as an array/struct element) a
// type whose pointer form implements sync.Locker while its value form does
// not — the same shape vet's copylocks keys on.
func ContainsLock(t types.Type) bool {
	return containsLock(t, make(map[types.Type]bool))
}

func containsLock(t types.Type, seen map[types.Type]bool) bool {
	if t == nil || seen[t] {
		return false
	}
	seen[t] = true
	t = types.Unalias(t)
	if isLocker(t) {
		return true
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if containsLock(u.Field(i).Type(), seen) {
				return true
			}
		}
	case *types.Array:
		return containsLock(u.Elem(), seen)
	}
	return false
}

// isLocker reports whether *t has Lock and Unlock methods that t itself
// lacks (i.e. copying t by value detaches it from its lock identity).
func isLocker(t types.Type) bool {
	if _, ok := t.(*types.Named); !ok {
		return false
	}
	ptr := types.NewPointer(t)
	if !hasMethod(ptr, "Lock") || !hasMethod(ptr, "Unlock") {
		return false
	}
	return !hasMethod(t, "Lock") || !hasMethod(t, "Unlock")
}

func hasMethod(t types.Type, name string) bool {
	ms := types.NewMethodSet(t)
	for i := 0; i < ms.Len(); i++ {
		f := ms.At(i).Obj()
		if f.Name() == name {
			sig, ok := f.Type().(*types.Signature)
			return ok && sig.Params().Len() == 0
		}
	}
	return false
}

// CommentAbove returns the text of the comment group ending on the line
// immediately above pos, or the doc comment attached if node is a FuncDecl.
// Used by lockcheck to honor `// caller holds <mu>` contracts.
func CommentAbove(pass *analysis.Pass, pos token.Pos) string {
	file := pass.FileOf(pos)
	if file == nil {
		return ""
	}
	line := pass.Fset.Position(pos).Line
	var out []string
	for _, cg := range file.Comments {
		end := pass.Fset.Position(cg.End()).Line
		if end == line-1 || end == line {
			// Text() strips directive comments (//lint:...), so keep the raw
			// lines alongside it.
			out = append(out, cg.Text())
			for _, c := range cg.List {
				out = append(out, c.Text)
			}
		}
	}
	return strings.Join(out, "\n")
}
