// Package libtest is test support: exempt as a whole.
package libtest

// Helper is called by tests alone.
func Helper() int { return 1 }
