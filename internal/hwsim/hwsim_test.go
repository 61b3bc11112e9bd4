package hwsim

import "testing"

func TestClockTickAdvance(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Fatalf("zero clock at cycle %d, want 0", c.Now())
	}
	if got := c.Tick(); got != 1 {
		t.Fatalf("Tick returned %d, want 1", got)
	}
	c.Advance(10)
	if c.Now() != 11 {
		t.Fatalf("after Advance(10) clock at %d, want 11", c.Now())
	}
	c.Reset()
	if c.Now() != 0 {
		t.Fatalf("after Reset clock at %d, want 0", c.Now())
	}
}
