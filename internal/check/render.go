package check

import (
	"encoding/json"
	"io"
	"strings"

	"m2cc/internal/diag"
)

// Render formats findings one per line (diag.Diagnostic.String) — the
// byte-comparable form used by the differential tests and m2c -lint.
func Render(findings []diag.Diagnostic) string {
	var sb strings.Builder
	for _, d := range findings {
		sb.WriteString(d.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// JSONFinding is the machine-readable finding shape: m2c -lint-json
// writes it indented, m2cd's /lint response compact.
type JSONFinding struct {
	File     string `json:"file"`
	Line     int32  `json:"line"`
	Col      int32  `json:"col"`
	EndLine  int32  `json:"end_line,omitempty"`
	EndCol   int32  `json:"end_col,omitempty"`
	Severity string `json:"severity"`
	Message  string `json:"message"`
	Code     string `json:"code,omitempty"`
}

// JSON converts findings to their machine-readable shape.  The result
// is never nil, so an empty report encodes as [].
func JSON(findings []diag.Diagnostic) []JSONFinding {
	out := make([]JSONFinding, 0, len(findings))
	for _, d := range findings {
		jf := JSONFinding{
			File: d.File, Line: d.Pos.Line, Col: d.Pos.Col,
			Severity: d.Sev.String(), Message: d.Msg, Code: d.Code,
		}
		if d.End.IsValid() {
			jf.EndLine = d.End.Line
			jf.EndCol = d.End.Col
		}
		out = append(out, jf)
	}
	return out
}

// WriteJSON emits findings as an indented JSON array.
func WriteJSON(w io.Writer, findings []diag.Diagnostic) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(JSON(findings))
}
