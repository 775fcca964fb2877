// Package specs embeds the committed model specifications, so the zoo
// builds the paper's Figure 2 example, Peterson's algorithm and the token
// ring from the same files that -spec, CI and the docs read.
package specs

import "embed"

// FS holds every *.json spec in this directory.
//
//go:embed *.json
var FS embed.FS
