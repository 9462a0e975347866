package determinism

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// PrintCounts writes map entries in iteration order.
func PrintCounts(w io.Writer, m map[string]int) {
	for k, n := range m { // want maprange (line 12)
		fmt.Fprintf(w, "%s %d\n", k, n)
	}
}

// JoinKeys writes map keys through a WriteString method.
func JoinKeys(m map[string]bool) string {
	var b strings.Builder
	for k := range m { // want maprange (line 20)
		b.WriteString(k)
	}
	return b.String()
}

// PrintSorted is the clean counterpart of PrintCounts; no diagnostic expected.
func PrintSorted(w io.Writer, m map[string]int) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%s %d\n", k, m[k])
	}
}
