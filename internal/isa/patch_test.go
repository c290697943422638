package isa_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"firmup/internal/isa"
	"firmup/internal/isa/arm"
	"firmup/internal/isa/mips"
	"firmup/internal/isa/ppc"
	"firmup/internal/isa/x86"
)

// TestPatchRefusals drives every fixup format's range and alignment
// checks from both sides: each bound is accepted, one word past it is
// refused, and so is a misaligned target and a format the backend does
// not define. A refusal must name the architecture, leave the buffer as
// it was, and not panic.
func TestPatchRefusals(t *testing.T) {
	descs := map[string]*isa.Desc{
		"arm": arm.New().Desc, "mips": mips.New().Desc,
		"ppc": ppc.New().Desc, "x86": x86.New().Desc,
	}
	const at = 0x40000000 // address of the patched instruction
	const unknown = 0xFF
	cases := []struct {
		arch   string
		format uint8 // the backend's unexported fixup format
		target uint32
		ok     bool
	}{
		// ARM fmtB24: signed 24-bit word offset from pc+8.
		{"arm", 0, at + 8 + 4*(1<<23-1), true},
		{"arm", 0, at + 8 - 4*(1<<23), true},
		{"arm", 0, at + 8 + 4*(1<<23), false},
		{"arm", 0, at + 8 - 4*(1<<23) - 4, false},
		{"arm", 0, at + 8 + 2, false},
		// MIPS fmtBranch16: signed 16-bit word offset from the delay slot.
		{"mips", 0, at + 4 + 4*0x7FFF, true},
		{"mips", 0, at + 4 - 4*0x8000, true},
		{"mips", 0, at + 4 + 4*0x8000, false},
		{"mips", 0, at + 4 - 4*0x8000 - 4, false},
		{"mips", 0, at + 4 + 2, false},
		// PPC fmtRel14: signed 16-bit byte displacement, word aligned.
		{"ppc", 0, at + 0x7FFC, true},
		{"ppc", 0, at - 0x8000, true},
		{"ppc", 0, at + 0x8000, false},
		{"ppc", 0, at - 0x8000 - 4, false},
		{"ppc", 0, at + 2, false},
		// PPC fmtRel24: signed 26-bit byte displacement, word aligned.
		{"ppc", 1, at + 1<<25 - 4, true},
		{"ppc", 1, at - 1<<25, true},
		{"ppc", 1, at + 1<<25, false},
		{"ppc", 1, at - 1<<25 - 4, false},
		{"ppc", 1, at + 2, false},
		{"arm", unknown, at, false},
		{"mips", unknown, at, false},
		{"ppc", unknown, at, false},
		{"x86", unknown, at, false},
	}
	for _, c := range cases {
		name := fmt.Sprintf("%s/format%d/%#x", c.arch, c.format, c.target)
		buf := make([]byte, 8)
		var err error
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: panicked: %v", name, r)
				}
			}()
			err = descs[c.arch].Patch(buf, 0, c.format, at, c.target)
		}()
		switch {
		case c.ok && err != nil:
			t.Errorf("%s: refused: %v", name, err)
		case !c.ok && err == nil:
			t.Errorf("%s: accepted, want a refusal", name)
		case !c.ok && !strings.HasPrefix(err.Error(), c.arch+": "):
			t.Errorf("%s: error %q does not name the architecture", name, err)
		case !c.ok && !bytes.Equal(buf, make([]byte, 8)):
			t.Errorf("%s: refusal wrote % x", name, buf)
		}
	}
}
