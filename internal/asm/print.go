package asm

import (
	"fmt"
	"strings"
)

// String renders the program as GNU-style AArch64 assembly text, the form
// a user would inspect with cmd/autogemm-gen. Lane suffixes use the NEON
// ".4s" spelling; for SVE configurations the printed text is still the
// NEON form since the IR is lane-width agnostic.
func (p *Program) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "// kernel %s\n", p.Name)
	for i := range p.Instrs {
		in := &p.Instrs[i]
		line := formatInstr(in)
		if in.Op == OpLabel {
			fmt.Fprintf(&b, "%s\n", line)
			continue
		}
		if in.Comment != "" {
			fmt.Fprintf(&b, "\t%-40s // %s\n", line, in.Comment)
		} else {
			fmt.Fprintf(&b, "\t%s\n", line)
		}
	}
	return b.String()
}

func formatInstr(in *Instr) string {
	switch in.Op {
	case OpNop:
		return "nop"
	case OpMov:
		return fmt.Sprintf("mov %s, %s", in.Dst, in.Src1)
	case OpMovI:
		return fmt.Sprintf("mov %s, #%d", in.Dst, in.Imm)
	case OpLsl:
		return fmt.Sprintf("lsl %s, %s, #%d", in.Dst, in.Src1, in.Imm)
	case OpAdd:
		return fmt.Sprintf("add %s, %s, %s", in.Dst, in.Src1, in.Src2)
	case OpAddI:
		return fmt.Sprintf("add %s, %s, #%d", in.Dst, in.Src1, in.Imm)
	case OpSubI:
		return fmt.Sprintf("sub %s, %s, #%d", in.Dst, in.Src1, in.Imm)
	case OpSubs:
		return fmt.Sprintf("subs %s, %s, #%d", in.Dst, in.Src1, in.Imm)
	case OpLabel:
		return in.Label + ":"
	case OpB:
		return "b " + in.Label
	case OpBne:
		return "b.ne " + in.Label
	case OpRet:
		return "ret"
	case OpLdrQ:
		return fmt.Sprintf("ldr q%d, [%s, #%d]", in.Dst.Index(), in.Src1, in.Imm)
	case OpLdrQPost:
		return fmt.Sprintf("ldr q%d, [%s], #%d", in.Dst.Index(), in.Src1, in.Imm)
	case OpStrQ:
		return fmt.Sprintf("str q%d, [%s, #%d]", in.Dst.Index(), in.Src1, in.Imm)
	case OpStrQPost:
		return fmt.Sprintf("str q%d, [%s], #%d", in.Dst.Index(), in.Src1, in.Imm)
	case OpFmla:
		return fmt.Sprintf("fmla %s.4s, %s.4s, %s.s[%d]", in.Dst, in.Src1, in.Src2, in.Lane)
	case OpVZero:
		return fmt.Sprintf("movi %s.4s, #0", in.Dst)
	case OpPrfm:
		return fmt.Sprintf("prfm pldl1keep, [%s, #%d]", in.Src1, in.Imm)
	default:
		if line, ok := formatSVE(in); ok {
			return line
		}
		return fmt.Sprintf("<op %d>", in.Op)
	}
}
