package repro

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
)

// goldenDir holds the committed text goldens, one directory per locked
// configuration: testdata/golden/<set>/<artifact>.
const goldenDir = "testdata/golden"

// checkGolden compares rendered artifacts (name → text) with the files
// under testdata/golden/<set>/ byte for byte. A mismatch prints a line
// diff naming the file and the first differing line; a committed file
// with no rendered artifact, or an artifact with no committed file,
// fails too.
//
// GOLDEN_UPDATE=1 rewrites the set from the render instead. Use it ONLY
// for an intentional semantic change to the simulation or the renderers
// — never to accommodate a refactor or an optimization, whose contract
// is byte-identical output:
//
//	GOLDEN_UPDATE=1 go test -run 'TestGolden' .
func checkGolden(t *testing.T, set string, arts map[string]string) {
	t.Helper()
	dir := filepath.Join(goldenDir, set)
	if os.Getenv("GOLDEN_UPDATE") != "" {
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, text := range arts {
			if err := os.WriteFile(filepath.Join(dir, name), []byte(text), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if _, ok := arts[e.Name()]; !ok {
			t.Errorf("%s: committed golden has no rendered artifact", filepath.Join(dir, e.Name()))
		}
	}
	names := make([]string, 0, len(arts))
	for name := range arts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		path := filepath.Join(dir, name)
		want, err := os.ReadFile(path)
		if err != nil {
			t.Errorf("%s: rendered artifact has no committed golden: %v", path, err)
			continue
		}
		if got := arts[name]; got != string(want) {
			t.Error(lineDiff(path, got, string(want)))
		}
	}
}

// lineDiff describes the first line where got departs from want, with
// two lines of context on each side.
func lineDiff(path, got, want string) string {
	lines := func(s string) []string { return strings.SplitAfter(strings.TrimSuffix(s, "\n"), "\n") }
	g, w := lines(got), lines(want)
	i := 0
	for i < len(g) && i < len(w) && g[i] == w[i] {
		i++
	}
	line := func(s []string, j int) string {
		if j < len(s) {
			return fmt.Sprintf("%q", s[j])
		}
		return "end of file"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s:%d: rendered output differs from the committed golden\n", path, i+1)
	for j := max(0, i-2); j < i; j++ {
		fmt.Fprintf(&b, "  %5d      %q\n", j+1, w[j])
	}
	fmt.Fprintf(&b, "  %5d got  %s\n", i+1, line(g, i))
	fmt.Fprintf(&b, "  %5d want %s\n", i+1, line(w, i))
	for j := i + 1; j < min(len(w), i+3); j++ {
		fmt.Fprintf(&b, "  %5d      %q\n", j+1, w[j])
	}
	return b.String()
}

// goldenDays keeps the locked campaigns short enough for CI while still
// populating every statistic: ~69 virtual minutes covers several
// 20-minute windows and a full hour window per path, and thousands of
// measurement probes per method.
const goldenDays = 0.048

// TestGoldenDigests locks the rendered output of two short fixed-seed
// campaigns: every file ronsim writes for them — Table 5/6 and the
// Figure 2–5 CDF series, rendered by the same core.Result.Artifacts
// ronsim writes with — plus the textual report. The goldens were
// recorded by the pre-optimization engine (heap event queue,
// pointer-chasing selector, raw-sample CDF pools), so any optimization
// that changes a single output bit (an RNG drawn in a different order,
// a float summed differently, a route selected by a subtly different
// comparison) fails here with a line diff.
func TestGoldenDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: golden campaigns take a few hundred ms each")
	}
	for _, d := range []core.Dataset{core.RONnarrow, core.RON2003} {
		t.Run(d.String(), func(t *testing.T) {
			cfg := core.DefaultConfig(d, goldenDays)
			cfg.Seed = 42
			res, err := core.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			arts := map[string]string{"report": res.Report()}
			for _, a := range res.Artifacts() {
				arts[a.Name] = a.Text
			}
			checkGolden(t, d.String(), arts)
		})
	}
}

// TestGoldenTableSet locks every table a result carries, through every
// form it takes: one RONnarrow cell with a multi-path + FEC workload
// under the "outage" scenario, so the workload and resilience tables
// exist. The set holds the cell's report, its four table files, and its
// store row as "column value" lines (floats in shortest round-trip
// form), so a column renamed, reordered or re-encoded fails here as
// surely as a moved table byte.
func TestGoldenTableSet(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: the golden campaign takes a few hundred ms")
	}
	cfg := core.DefaultConfig(core.RONnarrow, goldenDays)
	cfg.Seed = 42
	cfg.Workload = core.DefaultWorkloadConfig()
	cfg.Scenario.Preset = "outage"
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	arts := map[string]string{"report": res.Report()}
	for _, a := range res.Artifacts() {
		if strings.HasSuffix(a.Name, ".txt") {
			arts[a.Name] = a.Text
		}
	}
	var row strings.Builder
	cell := core.Cell{Dataset: cfg.Dataset, Seed: cfg.Seed}
	for _, m := range core.CellStoreRow(cell, res).Metrics {
		fmt.Fprintf(&row, "%s %s\n", m.Col, strconv.FormatFloat(m.Val, 'g', -1, 64))
	}
	arts["storerow"] = row.String()
	checkGolden(t, "tables", arts)
}

// goldenFileDigests is the SHA-256 of every committed golden file, as
// the digest-only goldens recorded them before the text was committed.
// TestGoldenFilesMatchRecordedDigests hashes the committed files, not a
// fresh render, so it proves that committing the text moved no byte.
// The one declared re-pin of the goldens (arithmetic epoch 2) deletes
// the test and this table.
var goldenFileDigests = map[string]string{
	"RON2003/fig2.dat":   "21471d300adb543d464d2f03aabfdf1658a4a1bf59c96facaafea20935a4310c",
	"RON2003/fig3.dat":   "50d4bd718e5f6442cd1cf4e2fa896f1ba70228574f097e5390e541bca4dfebe3",
	"RON2003/fig4.dat":   "d45ca6318cbcb1d699ae387fb793bb0dbc1b296d4b9644d7e8e2cc66eed08cbe",
	"RON2003/fig5.dat":   "bd5a029a4c2d2197d7fef0790916fe6adc07f5c08b4865d18cc81de06fecf8a5",
	"RON2003/report":     "1755326d3132fceb95bae4120c382bc0e8706a8738ea7efa1a144db4af7c23c7",
	"RON2003/table5.txt": "7ad8336a17897ffd6b2d48cd9de2503aa657b0d856edd1fb22f2fa8ca6778427",
	"RON2003/table6.txt": "86796cff0bcd800770c1497f6246e80f16eac7870990c75c8c2347823b3cafbd",

	"RONnarrow/fig2.dat":   "c4510e6e6a8ef7dc0462a2f7ca0d235824e23ec024c2ef353b4ef050e24476e4",
	"RONnarrow/fig3.dat":   "27d9237270acae650025e7bde2cad72b438ee43352d13b80ea37bf657b489ba1",
	"RONnarrow/fig4.dat":   "f4c675bffa3b0a111b6acd2b038cfa20ec6e00b806d5a9189313eb09f81618b7",
	"RONnarrow/fig5.dat":   "67d0af16cd6e94f041df5a8c3d2a4bbc90c2212226f1f1a69cbab9a5d4c80f8c",
	"RONnarrow/report":     "1d6c26913c7fd5c86da17db7b8b914b421c227a29bdca62149b3d0fbb0e4f6d8",
	"RONnarrow/table5.txt": "32e19df78d6c5e6ac2aee388bba9b2aa0d4bc69d899139ddbdd089ea5896d2ca",
	"RONnarrow/table6.txt": "9ca2a24427cfaa11a54a85540d13f6d3740488dd7c6911120a71acac780f8e23",

	"sweep/grid":                             "8a6bcc6742d5058c5982e704a84833c0d7282f32279a50cb7daacf3fb69a2118",
	"sweep/ronnarrow":                        "29f1dfdb43ead00fd1169adf044e1ae5350b5d4263e43921f2f4be6d26653d28",
	"sweep/ronnarrow-w25":                    "69185cf3b987740900f100311f886eca5e32554736e504c6b8af8ad7db86d994",
	"sweep/ronnarrow-p30s":                   "864a8c99f205f965501b4b7442b495f835bf70def679a66b0157a3f54ed7b929",
	"sweep/ronnarrow-p30s-w25":               "6ee8ce665f727501c4a7fad1bf68d54dee49190d4c4c27da456f7303fecb6b92",
	"sweep/ronnarrow-h0.25":                  "cf82f81a6d589d3dab0417ea48f12fdb5cffd850cee6959c66984dbd437d6de1",
	"sweep/ronnarrow-h0.25-w25":              "98d94522438f6fb79f9373a53ea1e9747aba8c9bc193707c3f40f9f437ea1928",
	"sweep/ronnarrow-h0.25-p30s":             "6ce42d2418451866d9ea67baf4640bee58e3527e2f899d3939322f3e6dbd4c8b",
	"sweep/ronnarrow-h0.25-p30s-w25":         "f0d046f62fd2a2c5e0c8a973096a9887162f99354ea65d80aee6670b0772eae5",
	"sweep/ronnarrow-ls4-es1":                "cc7c60af074a50d4d3ece6e51cd1fff93a146e5812722c4f55ef4f6fa717964a",
	"sweep/ronnarrow-ls4-es1-w25":            "43c120adb41213d3d31aa4eaf164a932b8766ee09ce26186ce946844ce5a695b",
	"sweep/ronnarrow-ls4-es1-p30s":           "364b938ef73cf46f3710eff6047a613b75ec629cbadfe4b1242c156c6e22b93a",
	"sweep/ronnarrow-ls4-es1-p30s-w25":       "e42887cd4f3743622bcedac44fc4c9657f08d8701fcd99a8eaee53748d4831b5",
	"sweep/ronnarrow-ls4-es1-h0.25":          "177bd1023028ee8db1b726d6a08c4d31e4ac236a81b31a23ff14bba2a2d2fa9d",
	"sweep/ronnarrow-ls4-es1-h0.25-w25":      "11ac2822513fe884515b33b2f7b4d56413db99367ae317c3ae60a956ec58d623",
	"sweep/ronnarrow-ls4-es1-h0.25-p30s":     "9c640a78729758e0aa734b97e777397b3121d1888230819137b83adce0a7cf64",
	"sweep/ronnarrow-ls4-es1-h0.25-p30s-w25": "2fd68e870d7fc1bb48913cd9ad85ee83ebbecdb539df729e4d3fbed14edecbe8",

	"tables/report":         "b41bf763d3e8b4e9c52e3f8b061e08f9a33c05ec7404a821dcf6b60b6e2c0927",
	"tables/resilience.txt": "9a8f9a47c6c3f1deee084eec91ab5e6a31e237b1416688edae1748833d29d57c",
	"tables/storerow":       "e580e416f718e5d369b24981e8cefb60ae7a91ff5205d76025f9926ec068c4b9",
	"tables/table5.txt":     "a370af7e52f170327bfbeae81f0d739d0c4a60495434f8b126dc66bb4f19c94e",
	"tables/table6.txt":     "063a12b57b9ed020263afb60cf7c02cd6426fb3cd20b1d5c64bfa3848b4d96e4",
	"tables/workload.txt":   "e845aded4e1a5180a4a5c52b9062d66ac596a92f848ba6a26537cdd1991d34fb",

	"workload-sweep/grid":             "99215025ca61542b1c5d99c1996aec4c278ba60c92e140bfc78eb9f4d5362d4c",
	"workload-sweep/ronnarrow":        "47e230617e7fbfe1a6c644fd35d7e53170c65d845d8ba80d61916041d1a742a0",
	"workload-sweep/ronnarrow-red0.5": "6a251ac8002610c158bc7e418c623047e493d4da970551987649f0ddf97c453f",
}

func TestGoldenFilesMatchRecordedDigests(t *testing.T) {
	seen := 0
	err := filepath.WalkDir(goldenDir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(goldenDir, path)
		if err != nil {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		sum := sha256.Sum256(data)
		want, ok := goldenFileDigests[filepath.ToSlash(rel)]
		switch {
		case !ok:
			t.Errorf("%s: no recorded digest", path)
		case hex.EncodeToString(sum[:]) != want:
			t.Errorf("%s: hashes to %x, recorded %s", path, sum, want)
		default:
			seen++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != len(goldenFileDigests) {
		t.Errorf("%d of %d recorded goldens are committed and match", seen, len(goldenFileDigests))
	}
}
