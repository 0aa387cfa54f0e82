package xpowerd

import (
	"os"
	"testing"
)

// TestMain keeps the default engine's artifact store memory-only: every
// test binary is a new build with its own fingerprint, so entries it
// wrote to the user's cache directory would never be read again.
func TestMain(m *testing.M) {
	os.Setenv("XTENERGY_MEMO_DIR", "off")
	os.Exit(m.Run())
}
