#include "textflag.h"

// LANE16 classifies the 16 bytes at off(SI) into a 16-bit mask in R, one
// bit per byte, over the folds of structidx.go: (x|0x02)=='>' matches '<'
// and '>', (x|0x01)=='\'' matches '&' and '\'', x=='"' matches '"'. X8-X12
// hold the broadcast constants 0x02, '>', 0x01, '\'' and '"'.
#define LANE16(off, R) \
	MOVOU    off(SI), X0; \
	MOVO     X0, X1;      \
	POR      X8, X1;      \
	PCMPEQB  X9, X1;      \
	MOVO     X0, X2;      \
	POR      X10, X2;     \
	PCMPEQB  X11, X2;     \
	PCMPEQB  X12, X0;     \
	POR      X1, X0;      \
	POR      X2, X0;      \
	PMOVMSKB X0, R

// BROADCAST fills the 16 byte lanes of X with the byte repeated in imm.
#define BROADCAST(imm, X) \
	MOVQ       imm, AX; \
	MOVQ       AX, X;   \
	PUNPCKLQDQ X, X

// func classifyBlocks(dst []uint64, src []byte)
TEXT ·classifyBlocks(SB), NOSPLIT, $0-48
	MOVQ    dst_base+0(FP), DI
	MOVQ    dst_len+8(FP), CX
	MOVQ    src_base+24(FP), SI
	MOVQ    src_len+32(FP), AX
	SHRQ    $6, AX
	CMPQ    AX, CX
	CMOVQLT AX, CX // CX = min(len(dst), len(src)/64)
	TESTQ   CX, CX
	JLE     done

	BROADCAST($0x0202020202020202, X8)
	BROADCAST($0x3e3e3e3e3e3e3e3e, X9)
	BROADCAST($0x0101010101010101, X10)
	BROADCAST($0x2727272727272727, X11)
	BROADCAST($0x2222222222222222, X12)

loop:
	LANE16(0, AX)
	LANE16(16, BX)
	LANE16(32, DX)
	LANE16(48, R8)
	SHLQ $16, BX
	SHLQ $32, DX
	SHLQ $48, R8
	ORQ  BX, AX
	ORQ  DX, AX
	ORQ  R8, AX
	MOVQ AX, (DI)
	ADDQ $64, SI
	ADDQ $8, DI
	DECQ CX
	JNZ  loop

done:
	RET
