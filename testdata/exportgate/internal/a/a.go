// Package a is the export gate's fixture: one export of each kind the
// gate must tell apart.
package a

// Used has a caller in cmd/app.
func Used() Live { return Live{} }

// Live is Used's result, so its methods can be reached.
type Live struct{}

// String is called only by fmt, through fmt.Stringer.
func (Live) String() string { return "live" }

// unwired is a method nothing calls, not even a test.
func (Live) unwired() {}

// Dead has no caller at all.
func Dead() {}

// TestOnly is called only from a test.
func TestOnly() {}

// Encode is called only from a test; cmd/app has an unrelated Encode.
func Encode() {}

// Allowed is called only from a test, which the allowlist names.
func Allowed() {}
