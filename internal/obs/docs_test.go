package obs

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestDocsNameRealMetrics: every scec_* metric the README and DESIGN cite is
// one names.go defines (a histogram's _bucket/_count/_sum series count as
// its family). A doc that names a missing family teaches a counter rule
// that never fires.
func TestDocsNameRealMetrics(t *testing.T) {
	src, err := os.ReadFile("names.go")
	if err != nil {
		t.Fatal(err)
	}
	defined := map[string]bool{}
	for _, m := range regexp.MustCompile(`"(scec_[a-z0-9_]+)"`).FindAllStringSubmatch(string(src), -1) {
		defined[m[1]] = true
	}
	// A brace group after a trailing underscore abbreviates siblings
	// (scec_adapt_plan_{cost,r}); after a full name it lists labels.
	cited := regexp.MustCompile(`scec_[a-z0-9_]+(\{[a-z0-9_,]+\})?`)
	for _, doc := range []string{"../../README.md", "../../DESIGN.md"} {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range cited.FindAllStringSubmatch(string(b), -1) {
			prefix := strings.TrimSuffix(m[0], m[1])
			names := []string{prefix}
			if m[1] != "" && strings.HasSuffix(prefix, "_") {
				names = names[:0]
				for _, alt := range strings.Split(strings.Trim(m[1], "{}"), ",") {
					names = append(names, prefix+alt)
				}
			}
			for _, name := range names {
				family := name
				for _, suffix := range []string{"_bucket", "_count", "_sum"} {
					if base, ok := strings.CutSuffix(name, suffix); ok && defined[base] {
						family = base
					}
				}
				if !defined[family] {
					t.Errorf("%s cites %s, which names.go does not define", doc, name)
				}
			}
		}
	}
}
