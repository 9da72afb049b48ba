package analysis

import "path/filepath"

// Reporting helpers for the SARIF and -counts outputs.

// relPath renders file module-relative with forward slashes, so
// reports agree across machines and checkout locations.
func relPath(moduleRoot, file string) string {
	if moduleRoot != "" {
		if rel, err := filepath.Rel(moduleRoot, file); err == nil && filepath.IsLocal(rel) {
			return filepath.ToSlash(rel)
		}
	}
	return filepath.ToSlash(file)
}

// CountByAnalyzer tallies findings per analyzer name.
func CountByAnalyzer(findings []Finding) map[string]int {
	counts := map[string]int{}
	for _, f := range findings {
		counts[f.Analyzer]++
	}
	return counts
}
