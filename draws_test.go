package repro

import (
	"fmt"
	"go/scanner"
	"go/token"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// TestDrawsHaveOneHome keeps every deterministic draw in one package:
// no non-test Go file outside internal/detmath may hold a SplitMix64
// multiplier or the 2⁻⁵³ uniform scale, so a new stream takes its bits
// from detmath instead of a private copy that can drift from the
// others. The benchmark under bench/ronbench is pinned and exempt.
func TestDrawsHaveOneHome(t *testing.T) {
	for _, p := range drawCopies(t, ".") {
		t.Error(p + " (use repro/internal/detmath)")
	}
}

// TestDrawGateReports runs the gate over a small tree with a planted
// copy in each spelling it catches beside shifts it must not flag, and
// copies in a test file, in detmath and in bench/ronbench that it
// exempts, so the gate is shown to fail when it should.
func TestDrawGateReports(t *testing.T) {
	got := drawCopies(t, filepath.Join("testdata", "drawgate"))
	want := []string{
		"internal/sim/sim.go:6: SplitMix64 multiplier 0xbf58_476d_1ce4_e5b9",
		"internal/sim/sim.go:7: SplitMix64 multiplier 0x94D049BB133111EB",
		"internal/sim/sim.go:11: 2⁻⁵³ scale 1 << 53",
		"internal/sim/sim.go:13: 2⁻⁵³ scale 9007199254740992",
		"internal/sim/sim.go:15: 2⁻⁵³ scale 1.1102230246251565e-16",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("gate reported\n\t%s\nwant\n\t%s", strings.Join(got, "\n\t"), strings.Join(want, "\n\t"))
	}
}

// drawCopies scans the non-test Go files under root, skipping testdata,
// hidden directories, internal/detmath and bench/ronbench, and returns
// each draw constant it finds as "file:line: what literal". Literals are
// compared by value, so digit separators and other spellings of the same
// number are caught too.
func drawCopies(t *testing.T, root string) []string {
	t.Helper()
	var found []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, p)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			name := d.Name()
			if p != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) ||
				rel == "internal/detmath" || rel == "bench/ronbench" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		fset := token.NewFileSet()
		file := fset.AddFile(rel, -1, len(src))
		var s scanner.Scanner
		s.Init(file, src, nil, 0)
		var back [2]string // the two previous tokens, an integer as its decimal value
		for {
			pos, tok, lit := s.Scan()
			if tok == token.EOF {
				break
			}
			what, text := "", tok.String()
			switch tok {
			case token.INT:
				v, err := strconv.ParseUint(lit, 0, 64)
				if err != nil {
					break
				}
				text = strconv.FormatUint(v, 10)
				switch {
				case v == 0xBF58476D1CE4E5B9 || v == 0x94D049BB133111EB:
					what = "SplitMix64 multiplier " + lit
				case v == 1<<53:
					what = "2⁻⁵³ scale " + lit
				case v == 53 && back == [2]string{"1", "<<"}:
					what = "2⁻⁵³ scale 1 << 53"
				}
			case token.FLOAT:
				if v, err := strconv.ParseFloat(strings.ReplaceAll(lit, "_", ""), 64); err == nil && v == math.Ldexp(1, -53) {
					what = "2⁻⁵³ scale " + lit
				}
			}
			if what != "" {
				found = append(found, fmt.Sprintf("%s:%d: %s", rel, fset.Position(pos).Line, what))
			}
			back = [2]string{back[1], text}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return found
}
