// Package archtest states the repository's architecture rules as tests over
// its own source, parsed with go/parser: a rule that breaks fails plain
// go test ./... and names the file and line that broke it.
package archtest
