#include "textflag.h"

// Rows of ·simdConsts (simd_amd64.go), 32 bytes each.
#define LOG2E ·simdConsts+0(SB)
#define LN2U ·simdConsts+32(SB)
#define LN2L ·simdConsts+64(SB)
#define SIXTEENTH ·simdConsts+96(SB)
#define C8 ·simdConsts+128(SB)
#define C7 ·simdConsts+160(SB)
#define C6 ·simdConsts+192(SB)
#define C5 ·simdConsts+224(SB)
#define C4 ·simdConsts+256(SB)
#define C3 ·simdConsts+288(SB)
#define HALF ·simdConsts+320(SB)
#define ONE ·simdConsts+352(SB)
#define TWO ·simdConsts+384(SB)
#define EXPMAX ·simdConsts+416(SB)
#define TANHSMALL ·simdConsts+448(SB)
#define TANHBIG ·simdConsts+480(SB)
#define P0 ·simdConsts+512(SB)
#define P1 ·simdConsts+544(SB)
#define P2 ·simdConsts+576(SB)
#define Q0 ·simdConsts+608(SB)
#define Q1 ·simdConsts+640(SB)
#define Q2 ·simdConsts+672(SB)

// EXP4 sets Y0 = exp(Y0) lane-wise, for lanes whose exponent lands in
// (0, 0x7FF) once biased. It is math's archExp avxfma path with each scalar
// instruction replaced by its packed form, in the same order: VCVTPD2DQ
// rounds as CVTSD2SL does, VFNMADD231PD/VFMADD213PD fuse exactly where
// VFNMADD231SD/VFMADD213SD do, and the result is scaled by 2^k built from
// the biased exponent as archExp's ldexp builds it. Y14 holds 1023 in each
// 64-bit lane. Clobbers Y1, Y2.
#define EXP4 \
	VMULPD       LOG2E, Y0, Y1; \
	VCVTPD2DQY   Y1, X2; \
	VCVTDQ2PD    X2, Y1; \
	VFNMADD231PD LN2U, Y1, Y0; \
	VFNMADD231PD LN2L, Y1, Y0; \
	VMULPD       SIXTEENTH, Y0, Y0; \
	VMOVUPD      C8, Y1; \
	VFMADD213PD  C7, Y0, Y1; \
	VFMADD213PD  C6, Y0, Y1; \
	VFMADD213PD  C5, Y0, Y1; \
	VFMADD213PD  C4, Y0, Y1; \
	VFMADD213PD  C3, Y0, Y1; \
	VFMADD213PD  HALF, Y0, Y1; \
	VFMADD213PD  ONE, Y0, Y1; \
	VMULPD       Y1, Y0, Y0; \
	VADDPD       TWO, Y0, Y1; \
	VMULPD       Y1, Y0, Y0; \
	VADDPD       TWO, Y0, Y1; \
	VMULPD       Y1, Y0, Y0; \
	VADDPD       TWO, Y0, Y1; \
	VMULPD       Y1, Y0, Y0; \
	VADDPD       TWO, Y0, Y1; \
	VFMADD213PD  ONE, Y1, Y0; \
	VPMOVSXDQ    X2, Y2; \
	VPADDQ       Y14, Y2, Y2; \
	VPSLLQ       $52, Y2, Y2; \
	VMULPD       Y2, Y0, Y0

// ACTSETUP loads the activation loops' invariants: SI = src, DI = dst,
// CX = len(src)-4 (the last index a whole block starts at), AX = 0,
// Y14 = 1023 per lane, Y13 = the abs mask, Y12 = the sign mask.
#define ACTSETUP \
	MOVQ         dst_base+0(FP), DI; \
	MOVQ         src_base+24(FP), SI; \
	MOVQ         src_len+32(FP), CX; \
	SUBQ         $4, CX; \
	XORQ         AX, AX; \
	MOVQ         $1023, DX; \
	VMOVQ        DX, X14; \
	VPBROADCASTQ X14, Y14; \
	VPCMPEQQ     Y13, Y13, Y13; \
	VPSLLQ       $63, Y13, Y12; \
	VPSRLQ       $1, Y13, Y13

// ACTBLOCK loads src[AX:AX+4] into Y4 and |src| into Y5, and jumps to done
// unless a whole block remains and every lane is finite with |x| < 708.
#define ACTBLOCK(done) \
	CMPQ      AX, CX; \
	JGT       done; \
	VMOVUPD   (SI)(AX*8), Y4; \
	VANDPD    Y13, Y4, Y5; \
	VCMPPD    $0x05, EXPMAX, Y5, Y6; \
	VMOVMSKPD Y6, DX; \
	TESTL     DX, DX; \
	JNZ       done

// func sigmoidAVX2(dst, src []float64) int
//
// Sigmoid's two branches, selected per lane: with z = exp(x ≥ 0 ? -x : x),
// the result is (x ≥ 0 ? 1 : z) / (1 + z).
TEXT ·sigmoidAVX2(SB), NOSPLIT, $0-56
	ACTSETUP
	VXORPD Y11, Y11, Y11

sigloop:
	ACTBLOCK(sigdone)
	VCMPPD    $0x0D, Y11, Y4, Y7 // x >= 0
	VXORPD    Y12, Y4, Y8        // -x
	VBLENDVPD Y7, Y8, Y4, Y0
	EXP4
	VADDPD    ONE, Y0, Y1        // 1 + z
	VBLENDVPD Y7, ONE, Y0, Y3    // numerator
	VDIVPD    Y1, Y3, Y3
	VMOVUPD   Y3, (DI)(AX*8)
	ADDQ      $4, AX
	JMP       sigloop

sigdone:
	MOVQ AX, ret+48(FP)
	VZEROUPPER
	RET

// func tanhAVX2(dst, src []float64) int
//
// math.tanh's three branches, all computed and then blended per lane:
// z = |x| > 0.5·MAXLOG gives ±1, z ≥ 0.625 gives ±(1 - 2/(exp(2z)+1)),
// and below that x + x·s·P(s)/Q(s) with s = x², or x itself when x == 0.
TEXT ·tanhAVX2(SB), NOSPLIT, $0-56
	ACTSETUP

tanhloop:
	ACTBLOCK(tanhdone)

	// z ≥ 0.625: 1 - 2/(exp(2z)+1), negated for x < 0.
	VMULPD  TWO, Y5, Y0
	EXP4
	VADDPD  ONE, Y0, Y0
	VMOVUPD TWO, Y1
	VDIVPD  Y0, Y1, Y0
	VMOVUPD ONE, Y1
	VSUBPD  Y0, Y1, Y0
	VANDPD  Y12, Y4, Y7 // sign of x
	VXORPD  Y7, Y0, Y0

	// z < 0.625: x + x·s·((P0·s+P1)·s+P2) / (((s+Q0)·s+Q1)·s+Q2).
	VMULPD Y4, Y4, Y8
	VMULPD P0, Y8, Y9
	VADDPD P1, Y9, Y9
	VMULPD Y8, Y9, Y9
	VADDPD P2, Y9, Y9
	VADDPD Q0, Y8, Y10
	VMULPD Y8, Y10, Y10
	VADDPD Q1, Y10, Y10
	VMULPD Y8, Y10, Y10
	VADDPD Q2, Y10, Y10
	VMULPD Y8, Y4, Y3
	VMULPD Y9, Y3, Y3
	VDIVPD Y10, Y3, Y3
	VADDPD Y3, Y4, Y3

	VCMPPD    $0x0D, TANHSMALL, Y5, Y9 // z >= 0.625
	VBLENDVPD Y9, Y0, Y3, Y3
	VCMPPD    $0x0E, TANHBIG, Y5, Y9   // z > 0.5·MAXLOG
	VORPD     ONE, Y7, Y10             // ±1
	VBLENDVPD Y9, Y10, Y3, Y3
	VXORPD    Y10, Y10, Y10
	VCMPPD    $0x00, Y10, Y4, Y9       // x == 0
	VBLENDVPD Y9, Y4, Y3, Y3
	VMOVUPD   Y3, (DI)(AX*8)
	ADDQ      $4, AX
	JMP       tanhloop

tanhdone:
	MOVQ AX, ret+48(FP)
	VZEROUPPER
	RET

// func addVecMatAVX2(dst, x, b []float64, stride int)
//
// Column-outer: a block of dst columns stays in registers while the k loop
// runs over every row, taking dst[j] = dst[j] + x[k]·b[k·stride+j] for k
// ascending, multiply then add. That is the per-element sequence addVecMatGo
// performs; its four-row unrolling only saves loads and stores. Blocks are
// 16 columns (four independent chains), then 4, then 1.
TEXT ·addVecMatAVX2(SB), NOSPLIT, $0-80
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), DX
	MOVQ b_base+48(FP), R8
	MOVQ stride+72(FP), R9
	SHLQ $3, R9
	TESTQ DX, DX
	JZ   vmdone
	XORQ BX, BX

cols16:
	LEAQ 16(BX), AX
	CMPQ AX, CX
	JGT  cols4
	VMOVUPD (DI)(BX*8), Y0
	VMOVUPD 32(DI)(BX*8), Y1
	VMOVUPD 64(DI)(BX*8), Y2
	VMOVUPD 96(DI)(BX*8), Y3
	LEAQ (R8)(BX*8), R10
	MOVQ SI, R11
	MOVQ DX, R12

k16:
	VBROADCASTSD (R11), Y4
	VMULPD       (R10), Y4, Y5
	VADDPD       Y5, Y0, Y0
	VMULPD       32(R10), Y4, Y6
	VADDPD       Y6, Y1, Y1
	VMULPD       64(R10), Y4, Y7
	VADDPD       Y7, Y2, Y2
	VMULPD       96(R10), Y4, Y8
	VADDPD       Y8, Y3, Y3
	ADDQ         $8, R11
	ADDQ         R9, R10
	DECQ         R12
	JNZ          k16
	VMOVUPD Y0, (DI)(BX*8)
	VMOVUPD Y1, 32(DI)(BX*8)
	VMOVUPD Y2, 64(DI)(BX*8)
	VMOVUPD Y3, 96(DI)(BX*8)
	MOVQ AX, BX
	JMP  cols16

cols4:
	LEAQ 4(BX), AX
	CMPQ AX, CX
	JGT  cols1
	VMOVUPD (DI)(BX*8), Y0
	LEAQ (R8)(BX*8), R10
	MOVQ SI, R11
	MOVQ DX, R12

k4:
	VBROADCASTSD (R11), Y4
	VMULPD       (R10), Y4, Y5
	VADDPD       Y5, Y0, Y0
	ADDQ         $8, R11
	ADDQ         R9, R10
	DECQ         R12
	JNZ          k4
	VMOVUPD Y0, (DI)(BX*8)
	MOVQ AX, BX
	JMP  cols4

cols1:
	CMPQ BX, CX
	JGE  vmdone
	VMOVSD (DI)(BX*8), X0
	LEAQ (R8)(BX*8), R10
	MOVQ SI, R11
	MOVQ DX, R12

k1:
	VMOVSD (R11), X4
	VMULSD (R10), X4, X5
	VADDSD X5, X0, X0
	ADDQ   $8, R11
	ADDQ   R9, R10
	DECQ   R12
	JNZ    k1
	VMOVSD X0, (DI)(BX*8)
	INCQ BX
	JMP  cols1

vmdone:
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
