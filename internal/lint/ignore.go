package lint

import (
	"go/token"
	"slices"
	"strings"
)

// ignorePrefix introduces a suppression directive. The full form is
//
//	//cclint:ignore analyzer[,analyzer...] -- reason
//
// A trailing directive suppresses matching findings on its own line; a
// standalone directive (nothing but whitespace before it on the line)
// suppresses matching findings on the line below. The reason is mandatory.
const ignorePrefix = "cclint:ignore"

// hygieneName is the pseudo-analyzer that reports directive problems.
// Directives cannot name it, so hygiene findings cannot be suppressed.
const hygieneName = "cclint"

// directive is one parsed //cclint:ignore comment.
type directive struct {
	pos       token.Position
	target    int      // line whose findings it suppresses
	analyzers []string // nil when malformed
	badNames  []string // named analyzers that do not exist
	noReason  bool
	used      bool
}

// directives indexes a package's ignore directives by file and target line.
type directives struct {
	pkg  *Package
	byFL map[string]map[int][]*directive
	all  []*directive
}

// collectIgnores parses every //cclint:ignore directive in the package.
func collectIgnores(pkg *Package, known map[string]bool) *directives {
	ds := &directives{pkg: pkg, byFL: make(map[string]map[int][]*directive)}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, ignorePrefix) {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				d := parseDirective(text[len(ignorePrefix):], pos, known)
				d.target = pos.Line
				if pkg.standaloneComment(pos) {
					d.target = pos.Line + 1
				}
				lines := ds.byFL[pos.Filename]
				if lines == nil {
					lines = make(map[int][]*directive)
					ds.byFL[pos.Filename] = lines
				}
				lines[d.target] = append(lines[d.target], d)
				ds.all = append(ds.all, d)
			}
		}
	}
	return ds
}

// parseDirective parses the part after "cclint:ignore".
func parseDirective(rest string, pos token.Position, known map[string]bool) *directive {
	d := &directive{pos: pos}
	names, reason, ok := strings.Cut(rest, "--")
	if !ok || strings.TrimSpace(reason) == "" {
		d.noReason = true
	}
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		if !known[n] || n == hygieneName {
			d.badNames = append(d.badNames, n)
			continue
		}
		d.analyzers = append(d.analyzers, n)
	}
	return d
}

// standaloneComment reports whether the line holding pos contains nothing
// but whitespace before the comment, i.e. the directive is on its own line
// and therefore applies to the line below.
func (pkg *Package) standaloneComment(pos token.Position) bool {
	lines := pkg.Lines[pos.Filename]
	if pos.Line-1 >= len(lines) || pos.Line < 1 {
		return false
	}
	prefix := lines[pos.Line-1]
	if pos.Column-1 <= len(prefix) {
		prefix = prefix[:pos.Column-1]
	}
	return strings.TrimSpace(prefix) == ""
}

// suppress reports whether a well-formed directive covers the diagnostic,
// marking the directive used.
func (ds *directives) suppress(d Diagnostic) bool {
	hit := false
	for _, dir := range ds.byFL[d.File][d.Line] {
		if dir.noReason || len(dir.badNames) > 0 {
			continue // malformed directives never suppress
		}
		if slices.Contains(dir.analyzers, d.Analyzer) {
			dir.used, hit = true, true
		}
	}
	return hit
}

// hygiene reports directive problems: missing reason, unknown analyzer,
// and — when the full suite ran — directives that no longer suppress
// anything (stale ignores must be deleted, exactly as staticcheck treats
// them). The unused check is skipped for filtered -only runs, where a
// directive for an unselected analyzer is legitimately idle.
func (ds *directives) hygiene(reportUnused bool) []Diagnostic {
	var out []Diagnostic
	emit := func(dir *directive, format string, args ...any) {
		out = append(out, diagAt(hygieneName, dir.pos, format, args...))
	}
	for _, dir := range ds.all {
		switch {
		case dir.noReason:
			emit(dir, "ignore directive missing '-- reason': every suppression must say why")
		case len(dir.badNames) > 0:
			emit(dir, "ignore directive names unknown analyzer %q", strings.Join(dir.badNames, ","))
		case !dir.used && reportUnused:
			emit(dir, "ignore directive for %q suppresses nothing; delete it", strings.Join(dir.analyzers, ","))
		}
	}
	return out
}
