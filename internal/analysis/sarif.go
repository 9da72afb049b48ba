package analysis

import (
	"encoding/json"
	"fmt"
	"io"
)

// SARIF 2.1.0 output, the minimal subset code-scanning UIs consume:
// one run, one tool driver with a rule per analyzer, one result per
// finding.

type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name           string      `json:"name"`
	InformationURI string      `json:"informationUri,omitempty"`
	Rules          []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
	DefaultConfig    sarifConfig  `json:"defaultConfiguration"`
}

type sarifConfig struct {
	Level string `json:"level"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	RuleIndex int             `json:"ruleIndex"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysicalLocation `json:"physicalLocation"`
}

type sarifPhysicalLocation struct {
	ArtifactLocation sarifArtifactLocation `json:"artifactLocation"`
	Region           sarifRegion           `json:"region"`
}

type sarifArtifactLocation struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

// WriteSARIF renders the findings as a SARIF 2.1.0 log. File paths
// are emitted module-relative (forward slashes), which makes the log
// portable across checkouts. The analyzers slice declares the rule
// set; analyzers with no findings still appear as rules so consumers
// know what ran.
func WriteSARIF(w io.Writer, moduleRoot string, analyzers []*Analyzer, findings []Finding) error {
	rules := make([]sarifRule, len(analyzers))
	ruleIndex := make(map[string]int, len(analyzers))
	for i, a := range analyzers {
		rules[i] = sarifRule{
			ID:               a.Name,
			ShortDescription: sarifMessage{Text: a.Doc},
			DefaultConfig:    sarifConfig{Level: a.Severity.String()},
		}
		ruleIndex[a.Name] = i
	}
	results := make([]sarifResult, 0, len(findings))
	for _, f := range findings {
		idx, ok := ruleIndex[f.Analyzer]
		if !ok {
			return fmt.Errorf("analysis: finding from analyzer %q not in the declared rule set", f.Analyzer)
		}
		results = append(results, sarifResult{
			RuleID:    f.Analyzer,
			RuleIndex: idx,
			Level:     f.Severity.String(),
			Message:   sarifMessage{Text: f.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysicalLocation{
					ArtifactLocation: sarifArtifactLocation{URI: relPath(moduleRoot, f.Pos.Filename)},
					Region:           sarifRegion{StartLine: f.Pos.Line, StartColumn: f.Pos.Column},
				},
			}},
		})
	}
	log := sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "lightpath-vet", Rules: rules}},
			Results: results,
		}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&log)
}
