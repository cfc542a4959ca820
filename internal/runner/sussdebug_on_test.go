//go:build sussdebug

package runner

const debugSequester = true
