// Package a is the export gate's fixture: one export of each kind the
// gate must tell apart.
package a

// Used has a caller in cmd/app.
func Used() {}

// Dead has no caller at all.
func Dead() {}

// TestOnly is called only from a test.
func TestOnly() {}

// Allowed is called only from a test, which the allowlist names.
func Allowed() {}
