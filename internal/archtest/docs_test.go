package archtest

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// docs are the documents a contributor or an operator reads, with their
// byte ceilings. A ceiling only goes down: a change that adds a paragraph
// removes one, and a change that shrinks a file lowers its ceiling here.
var docs = []struct {
	path    string
	ceiling int
}{
	{"DESIGN.md", 49971},
	{"README.md", 19345},
	{".claude/skills/verify/SKILL.md", 7658},
}

// changesEntryCeiling bounds the newest "- PR" entry of CHANGES.md, in bytes:
// an entry says what changed and how it was checked, and the run tables stay
// in the BENCH file they came from.
const changesEntryCeiling = 1536

func readDoc(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(root, name))
	if err != nil {
		t.Fatalf("documents: %v", err)
	}
	return string(b)
}

func TestDocumentsOnlyShrink(t *testing.T) {
	for _, d := range docs {
		if n := len(readDoc(t, d.path)); n > d.ceiling {
			t.Errorf("documents: %s is %d bytes, over its ceiling of %d (remove a paragraph for the one you add)", d.path, n, d.ceiling)
		}
	}
}

func TestNewestChangesEntryIsShort(t *testing.T) {
	newest := ""
	for _, line := range strings.Split(readDoc(t, "CHANGES.md"), "\n") {
		if strings.HasPrefix(line, "- PR ") {
			newest = line
		}
	}
	if newest == "" {
		t.Fatal("documents: CHANGES.md has no \"- PR\" entry")
	}
	if len(newest) > changesEntryCeiling {
		head, _, _ := strings.Cut(newest, ":")
		t.Errorf("documents: CHANGES.md's newest entry (%.40s) is %d bytes, over %d", head, len(newest), changesEntryCeiling)
	}
}

// testFunc is one top-level Test, Benchmark, Fuzz or Example function of a
// _test.go file, with the directory of its package.
type testFunc struct{ dir, name string }

// testFuncs parses the _test.go files walkGo visits (benchmark/ included: the
// documents drive its module too) for their top-level functions.
func testFuncs(t *testing.T) []testFunc {
	t.Helper()
	var out []testFunc
	tests := token.NewFileSet()
	err := walkGo(func(rel, p string) error {
		if !strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(tests, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil {
				out = append(out, testFunc{path.Dir(rel), fd.Name.Name})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("documents: parsing the checkout's tests: %v", err)
	}
	return out
}

// shellWords splits a command the way a shell would for the words that
// matter here: runs of non-space, with '...' and "..." quoting; a backslash
// (a line continuation) separates words.
func shellWords(s string) []string {
	var words []string
	var w strings.Builder
	in, quote := false, rune(0)
	for _, r := range s {
		switch {
		case quote != 0 && r == quote:
			quote = 0
		case quote != 0:
			w.WriteRune(r)
		case r == '\'' || r == '"':
			quote, in = r, true
		case r == ' ' || r == '\t' || r == '\n' || r == '\\':
			if in {
				words = append(words, w.String())
				w.Reset()
				in = false
			}
		default:
			w.WriteRune(r)
			in = true
		}
	}
	if in {
		words = append(words, w.String())
	}
	return words
}

var (
	fence          = regexp.MustCompile("(?s)```[a-z]*\n(.*?)```")
	inlineCode     = regexp.MustCompile("`([^`]+)`")
	shellExpansion = regexp.MustCompile(`\$[A-Za-z_{(]`)
	testName       = regexp.MustCompile(`^(Test|Benchmark|Fuzz)[A-Z0-9]\w*(/\S*)?$`)
)

// command is one shell command a document quotes, by its words, with the
// line it starts on.
type command struct {
	line  int
	words []string
}

// split appends to out the commands of text, which starts on line: its
// words split at &&, ||, ; and |.
func split(out []command, line int, text string) []command {
	c := command{line: line}
	for _, w := range append(shellWords(text), ";") {
		if w == "&&" || w == "||" || w == ";" || w == "|" {
			if len(c.words) > 0 {
				out = append(out, c)
			}
			c.words = nil
			continue
		}
		c.words = append(c.words, w)
	}
	return out
}

// commands returns the shell commands a markdown document quotes — every
// line of a fenced block, every inline code span — split at &&, ||, ; and |.
func commands(doc string) []command {
	var out []command
	add := func(offset int, text string) {
		out = split(out, 1+strings.Count(doc[:offset], "\n"), text)
	}
	rest := doc
	for _, m := range fence.FindAllStringSubmatchIndex(doc, -1) {
		at := m[2]
		for _, l := range strings.Split(doc[m[2]:m[3]], "\n") {
			add(at, l)
			at += len(l) + 1
		}
		rest = rest[:m[0]] + strings.Repeat(" ", m[1]-m[0]) + rest[m[1]:]
	}
	for _, m := range inlineCode.FindAllStringSubmatchIndex(rest, -1) {
		add(m[2], rest[m[2]:m[3]])
	}
	return out
}

// workflow is the CI workflow, whose run: steps are checked like a
// document's commands.
const workflow = ".github/workflows/ci.yml"

// workflowCommands returns the shell commands of a workflow's run: steps:
// the value of a one-line `run:`, and every line of a `run: |` block (the
// lines indented deeper than the line that opens it).
func workflowCommands(yml string) []command {
	var out []command
	block := -1 // the indent of the line that opened the current block
	for i, line := range strings.Split(yml, "\n") {
		indent := len(line) - len(strings.TrimLeft(line, " "))
		text := strings.TrimSpace(line)
		if block >= 0 && (text == "" || indent > block) {
			out = split(out, i+1, text)
			continue
		}
		block = -1
		value, ok := strings.CutPrefix(strings.TrimPrefix(text, "- "), "run:")
		if !ok {
			continue
		}
		if value = strings.TrimSpace(value); value == "|" {
			block = indent
			continue
		}
		out = split(out, i+1, value)
	}
	return out
}

// selectorKinds maps a go test flag to the function prefixes its pattern
// selects among.
var selectorKinds = map[string][]string{
	"run":   {"Test", "Fuzz", "Example"},
	"bench": {"Benchmark"},
	"fuzz":  {"Fuzz"},
}

// selectors returns a command's -run, -bench and -fuzz patterns (also in
// their -test.x and -x=pattern spellings) and the directories its package
// arguments name, recursive ones ending in "/...". A pattern a shell would
// expand, and ^$ (run no test, on purpose), are not returned.
func selectors(words []string) (flags map[string][]string, pkgs []string) {
	flags = map[string][]string{}
	dir := "."
	for i := 0; i < len(words); i++ {
		w := words[i]
		if w == "-C" && i+1 < len(words) {
			dir = words[i+1]
			i++
			continue
		}
		if strings.HasPrefix(w, "./") || w == "." {
			pkgs = append(pkgs, w)
			continue
		}
		name, value, hasValue := strings.Cut(strings.TrimPrefix(strings.TrimPrefix(w, "-"), "test."), "=")
		if !strings.HasPrefix(w, "-") || selectorKinds[name] == nil {
			continue
		}
		if !hasValue {
			if i+1 >= len(words) {
				continue
			}
			value = words[i+1]
			i++
		}
		if value != "^$" && !shellExpansion.MatchString(value) {
			flags[name] = append(flags[name], value)
		}
	}
	for i, p := range pkgs {
		base, recursive := strings.CutSuffix(p, "/...")
		pkgs[i] = path.Join(dir, base)
		if recursive {
			pkgs[i] += "/..."
		}
	}
	return flags, pkgs
}

// alternatives splits the part of a go test pattern that matches top-level
// function names (everything before the first slash outside brackets and
// parentheses) into its top-level alternatives, so that each name an
// alternation lists has to select something.
func alternatives(pattern string) []string {
	var out []string
	depth, start := 0, 0
	for i := 0; i < len(pattern); i++ {
		switch pattern[i] {
		case '\\':
			i++
		case '[', '(':
			depth++
		case ']', ')':
			depth--
		case '|', '/':
			if depth == 0 {
				out = append(out, pattern[start:i])
				if pattern[i] == '/' {
					return out
				}
				start = i + 1
			}
		}
	}
	return append(out, pattern[start:])
}

// inPackages reports whether dir is one of pkgs (all of the checkout when
// pkgs is empty).
func inPackages(dir string, pkgs []string) bool {
	if len(pkgs) == 0 {
		return true
	}
	for _, p := range pkgs {
		if base, ok := strings.CutSuffix(p, "/..."); ok {
			if base == "." || dir == base || strings.HasPrefix(dir, base+"/") {
				return true
			}
		} else if dir == p {
			return true
		}
	}
	return false
}

// Each name a go test -run, -bench or -fuzz pattern quoted in a document or
// run by CI lists selects at least one function of the packages the command
// names: a stale pattern passes while running nothing (go test -fuzz and
// -bench exit 0 when they match no target). A test named on its own, as
// DESIGN's invariants table does, must be declared.
func TestDocumentedTestSelectorsSelect(t *testing.T) {
	funcs := testFuncs(t)
	type source struct {
		path     string
		commands []command
	}
	var sources []source
	for _, d := range docs {
		sources = append(sources, source{d.path, commands(readDoc(t, d.path))})
	}
	sources = append(sources, source{workflow, workflowCommands(readDoc(t, workflow))})
	checked := 0
	for _, d := range sources {
		for _, c := range d.commands {
			if len(c.words) == 1 && testName.MatchString(c.words[0]) {
				checked++
				name, _, _ := strings.Cut(c.words[0], "/")
				if !slices.ContainsFunc(funcs, func(f testFunc) bool { return f.name == name }) {
					t.Errorf("documents: %s:%d: names %s, which no _test.go file declares", d.path, c.line, name)
				}
				continue
			}
			flags, pkgs := selectors(c.words)
			for flag, patterns := range flags {
				for _, pattern := range patterns {
					for _, alt := range alternatives(pattern) {
						checked++
						re, err := regexp.Compile(alt)
						if err != nil {
							t.Errorf("documents: %s:%d: -%s %q is not a regexp: %v", d.path, c.line, flag, pattern, err)
							continue
						}
						selected := slices.ContainsFunc(funcs, func(f testFunc) bool {
							return inPackages(f.dir, pkgs) && re.MatchString(f.name) &&
								slices.ContainsFunc(selectorKinds[flag], func(kind string) bool { return strings.HasPrefix(f.name, kind) })
						})
						if !selected {
							t.Errorf("documents: %s:%d: %q in -%s %q selects no %s function in %v", d.path, c.line, alt, flag, pattern, strings.Join(selectorKinds[flag], ", "), pkgs)
						}
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Error("documents: no -run, -bench or -fuzz pattern found in any document or workflow; is the command parser broken?")
	}
	t.Logf("%d names checked", checked)
}

var goPath = regexp.MustCompile(`[\w./-]*\w\.go\b`)

// Every .go file a document cites exists: a path names the file from the
// checkout's root, or ends a path that does ("mutate.go",
// "server/mutate.go").
func TestDocumentedGoPathsExist(t *testing.T) {
	var paths []string
	if err := walkGo(func(rel, _ string) error {
		paths = append(paths, rel)
		return nil
	}); err != nil {
		t.Fatalf("documents: walking the checkout: %v", err)
	}
	for _, d := range docs {
		doc := readDoc(t, d.path)
		for _, m := range goPath.FindAllStringIndex(doc, -1) {
			cited := strings.TrimPrefix(doc[m[0]:m[1]], "./")
			if strings.HasPrefix(cited, "/") || strings.HasPrefix(cited, "_") {
				continue // an absolute path or a URL; a suffix such as _test.go
			}
			if !slices.ContainsFunc(paths, func(p string) bool { return p == cited || strings.HasSuffix(p, "/"+cited) }) {
				t.Errorf("documents: %s:%d: cites %s, which is not in the checkout", d.path, 1+strings.Count(doc[:m[0]], "\n"), cited)
			}
		}
	}
}
