//go:build !sussdebug

package runner

const debugSequester = false
