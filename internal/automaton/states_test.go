package automaton

import (
	"testing"

	"gfcube/internal/bitstr"
)

// TestStateBitsAbsorbing checks the early absorbing-state return on a
// word containing the factor, including one where the factor occurs
// strictly inside the word.
func TestStateBitsAbsorbing(t *testing.T) {
	a := New(bitstr.MustParse("11"))
	if got := a.StateBits(0b0110, 4); got != a.States() {
		t.Fatalf("StateBits(0110) = %d, want absorbing %d", got, a.States())
	}
	if got := a.StateBits(0b0101, 4); got == a.States() {
		t.Fatal("StateBits(0101) hit the absorbing state on an 11-free word")
	}
}
