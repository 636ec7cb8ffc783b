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

// MVPAIR adds row pair (lo, hi)'s next two columns times x's into acc:
// Y4 holds [x_j, x_j+1, x_j, x_j+1], and (lo, hi) becomes
// [lo_j, lo_j+1, hi_j, hi_j+1] in tmp, so acc = [s0, s1] of row lo beside
// [s0, s1] of row hi, each lane one of addMatVecGo's two running sums.
#define MVPAIR(lo, hi, tmpx, tmpy, acc) \
	VMOVUPD     lo, tmpx; \
	VINSERTF128 $1, hi, tmpy, tmpy; \
	VMULPD      Y4, tmpy, tmpy; \
	VADDPD      tmpy, acc, acc

// MVODD adds the odd tail column to the even sums of row pair (lo, hi):
// Y4 holds [x_c-1, 0, x_c-1, 0] and tmp becomes [lo_c-1, 0, hi_c-1, 0], so
// the odd sums take 0·0 = +0, which leaves them unchanged (no running sum
// starts at or can reach -0).
#define MVODD(lo, hi, tmpx, tmpy, acc) \
	VMOVSD      lo, tmpx; \
	VMOVSD      hi, X9; \
	VINSERTF128 $1, X9, tmpy, tmpy; \
	VMULPD      Y4, tmpy, tmpy; \
	VADDPD      tmpy, acc, acc

// func addMatVecAVX2(dst, b, x []float64)
//
// Each dst[k] owns one lane pair holding addMatVecGo's two sums (even and
// odd terms), so a YMM register carries two rows; blocks of 8 rows run four
// independent chains, then 4, 2 and 1 rows. Every lane takes its terms in
// the scalar order, multiply then add. The pair sums are then added
// (VHADDPD, s1 + s0, which is s0 + s1) and added to dst.
// Registers: DI dst, CX rows left, R8 the block's first row, SI x, R9 the
// row stride in bytes, R11 three strides, R13 column pairs, DX odd tail.
TEXT ·addMatVecAVX2(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ b_base+24(FP), R8
	MOVQ x_base+48(FP), SI
	MOVQ x_len+56(FP), DX
	LEAQ (DX*8), R9
	LEAQ (R9)(R9*2), R11
	MOVQ DX, R13
	SHRQ $1, R13
	ANDQ $1, DX

mv8:
	CMPQ   CX, $8
	JLT    mv4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   R8, R10
	LEAQ   (R8)(R9*4), R12
	MOVQ   SI, AX
	MOVQ   R13, BX
	TESTQ  BX, BX
	JZ     mv8odd

mv8pairs:
	VBROADCASTF128 (AX), Y4
	MVPAIR((R10), (R10)(R9*1), X5, Y5, Y0)
	MVPAIR((R10)(R9*2), (R10)(R11*1), X6, Y6, Y1)
	MVPAIR((R12), (R12)(R9*1), X7, Y7, Y2)
	MVPAIR((R12)(R9*2), (R12)(R11*1), X8, Y8, Y3)
	ADDQ           $16, AX
	ADDQ           $16, R10
	ADDQ           $16, R12
	DECQ           BX
	JNZ            mv8pairs

mv8odd:
	TESTQ       DX, DX
	JZ          mv8sum
	VMOVSD      (AX), X4
	VINSERTF128 $1, X4, Y4, Y4
	MVODD((R10), (R10)(R9*1), X5, Y5, Y0)
	MVODD((R10)(R9*2), (R10)(R11*1), X6, Y6, Y1)
	MVODD((R12), (R12)(R9*1), X7, Y7, Y2)
	MVODD((R12)(R9*2), (R12)(R11*1), X8, Y8, Y3)

mv8sum:
	VHADDPD Y1, Y0, Y0       // rows k, k+2, k+1, k+3
	VPERMPD $0xD8, Y0, Y0    // rows k…k+3
	VADDPD  (DI), Y0, Y0
	VMOVUPD Y0, (DI)
	VHADDPD Y3, Y2, Y2
	VPERMPD $0xD8, Y2, Y2
	VADDPD  32(DI), Y2, Y2
	VMOVUPD Y2, 32(DI)
	ADDQ    $64, DI
	LEAQ    (R8)(R9*8), R8
	SUBQ    $8, CX
	JMP     mv8

mv4:
	CMPQ   CX, $4
	JLT    mv2
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	MOVQ   R8, R10
	MOVQ   SI, AX
	MOVQ   R13, BX
	TESTQ  BX, BX
	JZ     mv4odd

mv4pairs:
	VBROADCASTF128 (AX), Y4
	MVPAIR((R10), (R10)(R9*1), X5, Y5, Y0)
	MVPAIR((R10)(R9*2), (R10)(R11*1), X6, Y6, Y1)
	ADDQ           $16, AX
	ADDQ           $16, R10
	DECQ           BX
	JNZ            mv4pairs

mv4odd:
	TESTQ       DX, DX
	JZ          mv4sum
	VMOVSD      (AX), X4
	VINSERTF128 $1, X4, Y4, Y4
	MVODD((R10), (R10)(R9*1), X5, Y5, Y0)
	MVODD((R10)(R9*2), (R10)(R11*1), X6, Y6, Y1)

mv4sum:
	VHADDPD Y1, Y0, Y0
	VPERMPD $0xD8, Y0, Y0
	VADDPD  (DI), Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	LEAQ    (R8)(R9*4), R8
	SUBQ    $4, CX

mv2:
	CMPQ   CX, $2
	JLT    mv1
	VXORPD Y0, Y0, Y0
	MOVQ   R8, R10
	MOVQ   SI, AX
	MOVQ   R13, BX
	TESTQ  BX, BX
	JZ     mv2odd

mv2pairs:
	VBROADCASTF128 (AX), Y4
	MVPAIR((R10), (R10)(R9*1), X5, Y5, Y0)
	ADDQ           $16, AX
	ADDQ           $16, R10
	DECQ           BX
	JNZ            mv2pairs

mv2odd:
	TESTQ       DX, DX
	JZ          mv2sum
	VMOVSD      (AX), X4
	VINSERTF128 $1, X4, Y4, Y4
	MVODD((R10), (R10)(R9*1), X5, Y5, Y0)

mv2sum:
	VEXTRACTF128 $1, Y0, X1
	VHADDPD      X1, X0, X0  // rows k, k+1
	VADDPD       (DI), X0, X0
	VMOVUPD      X0, (DI)
	ADDQ         $16, DI
	LEAQ         (R8)(R9*2), R8
	SUBQ         $2, CX

mv1:
	TESTQ  CX, CX
	JZ     mvdone
	VXORPD X0, X0, X0
	MOVQ   R8, R10
	MOVQ   SI, AX
	MOVQ   R13, BX
	TESTQ  BX, BX
	JZ     mv1odd

mv1pairs:
	VMOVUPD (AX), X4
	VMULPD  (R10), X4, X5
	VADDPD  X5, X0, X0
	ADDQ    $16, AX
	ADDQ    $16, R10
	DECQ    BX
	JNZ     mv1pairs

mv1odd:
	TESTQ  DX, DX
	JZ     mv1sum
	VMOVSD (AX), X4
	VMOVSD (R10), X5
	VMULPD X4, X5, X5
	VADDPD X5, X0, X0

mv1sum:
	VHADDPD X0, X0, X0
	VADDSD  (DI), X0, X0
	VMOVSD  X0, (DI)

mvdone:
	VZEROUPPER
	RET

// func addMatMulATBAVX2(out, a, b []float64, rows, ac, bc int)
//
// Out row kk is addVecMatAVX2's column-outer loop with x = column kk of a:
// a block of the row stays in registers while i runs over every row of a
// and b, taking out[kk][j] += a[i][kk]·b[i][j] for i ascending, multiply
// then add — addMatMulATBGo's per-element sequence. Blocks are 16, 4 and
// 1 columns. The whole panel is one call.
// Registers: DI the out row, R13 the end of out, SI column kk of a, R14 a's
// row stride in bytes, R8 b, R9 b's row stride in bytes, CX bc, DX rows.
// With no rows there is nothing to add.
TEXT ·addMatMulATBAVX2(SB), NOSPLIT, $0-96
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), R13
	LEAQ (DI)(R13*8), R13
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), R8
	MOVQ rows+72(FP), DX
	MOVQ ac+80(FP), R14
	SHLQ $3, R14
	MOVQ bc+88(FP), CX
	LEAQ (CX*8), R9
	TESTQ DX, DX
	JLE  atbdone

atbrow:
	CMPQ DI, R13
	JGE  atbdone
	XORQ BX, BX

atb16:
	LEAQ    16(BX), AX
	CMPQ    AX, CX
	JGT     atb4
	VMOVUPD (DI)(BX*8), Y0
	VMOVUPD 32(DI)(BX*8), Y1
	VMOVUPD 64(DI)(BX*8), Y2
	VMOVUPD 96(DI)(BX*8), Y3
	LEAQ    (R8)(BX*8), R10
	MOVQ    SI, R11
	MOVQ    DX, R12

atbk16:
	VBROADCASTSD (R11), Y4
	VMULPD       (R10), Y4, Y5
	VADDPD       Y5, Y0, Y0
	VMULPD       32(R10), Y4, Y6
	VADDPD       Y6, Y1, Y1
	VMULPD       64(R10), Y4, Y7
	VADDPD       Y7, Y2, Y2
	VMULPD       96(R10), Y4, Y8
	VADDPD       Y8, Y3, Y3
	ADDQ         R14, R11
	ADDQ         R9, R10
	DECQ         R12
	JNZ          atbk16
	VMOVUPD      Y0, (DI)(BX*8)
	VMOVUPD      Y1, 32(DI)(BX*8)
	VMOVUPD      Y2, 64(DI)(BX*8)
	VMOVUPD      Y3, 96(DI)(BX*8)
	MOVQ         AX, BX
	JMP          atb16

atb4:
	LEAQ    4(BX), AX
	CMPQ    AX, CX
	JGT     atb1
	VMOVUPD (DI)(BX*8), Y0
	LEAQ    (R8)(BX*8), R10
	MOVQ    SI, R11
	MOVQ    DX, R12

atbk4:
	VBROADCASTSD (R11), Y4
	VMULPD       (R10), Y4, Y5
	VADDPD       Y5, Y0, Y0
	ADDQ         R14, R11
	ADDQ         R9, R10
	DECQ         R12
	JNZ          atbk4
	VMOVUPD      Y0, (DI)(BX*8)
	MOVQ         AX, BX
	JMP          atb4

atb1:
	CMPQ   BX, CX
	JGE    atbnext
	VMOVSD (DI)(BX*8), X0
	LEAQ   (R8)(BX*8), R10
	MOVQ   SI, R11
	MOVQ   DX, R12

atbk1:
	VMOVSD (R11), X4
	VMULSD (R10), X4, X5
	VADDSD X5, X0, X0
	ADDQ   R14, R11
	ADDQ   R9, R10
	DECQ   R12
	JNZ    atbk1
	VMOVSD X0, (DI)(BX*8)
	INCQ   BX
	JMP    atb1

atbnext:
	ADDQ R9, DI
	ADDQ $8, SI
	JMP  atbrow

atbdone:
	VZEROUPPER
	RET

// func adamAVX2(w, g, m, v []float64, k *adamCoeffs)
//
// adamGo's loop on four elements at a time, each lane taking adamGo's
// operations in adamGo's order: multiply then add for the moments, then
// the two divisions, the square root, + ε, lr·m̂ and the last division.
// VDIVPD and VSQRTPD round correctly, as DIVSD and SQRTSD do. The caller
// passes slices of one length, a multiple of four; no alignment is assumed.
// Registers: DI w, SI g, R8 m, R9 v, BX the index, CX blocks left,
// Y8–Y15 the coefficients in adamCoeffs order.
TEXT ·adamAVX2(SB), NOSPLIT, $0-104
	MOVQ         w_base+0(FP), DI
	MOVQ         w_len+8(FP), CX
	MOVQ         g_base+24(FP), SI
	MOVQ         m_base+48(FP), R8
	MOVQ         v_base+72(FP), R9
	MOVQ         k+96(FP), AX
	SHRQ         $2, CX
	JZ           adamdone
	VBROADCASTSD 0(AX), Y8   // β1
	VBROADCASTSD 8(AX), Y9   // 1-β1
	VBROADCASTSD 16(AX), Y10 // β2
	VBROADCASTSD 24(AX), Y11 // 1-β2
	VBROADCASTSD 32(AX), Y12 // bc1
	VBROADCASTSD 40(AX), Y13 // bc2
	VBROADCASTSD 48(AX), Y14 // lr
	VBROADCASTSD 56(AX), Y15 // ε
	XORQ         BX, BX

adamloop:
	VMOVUPD (SI)(BX*8), Y0
	VMULPD  (R8)(BX*8), Y8, Y1 // β1·m
	VMULPD  Y0, Y9, Y2         // (1-β1)·g
	VADDPD  Y2, Y1, Y1
	VMOVUPD Y1, (R8)(BX*8)
	VMULPD  (R9)(BX*8), Y10, Y3 // β2·v
	VMULPD  Y0, Y11, Y4         // (1-β2)·g
	VMULPD  Y0, Y4, Y4          // ·g
	VADDPD  Y4, Y3, Y3
	VMOVUPD Y3, (R9)(BX*8)
	VDIVPD  Y12, Y1, Y1 // m̂ = m/bc1
	VDIVPD  Y13, Y3, Y3 // v/bc2
	VSQRTPD Y3, Y3
	VADDPD  Y15, Y3, Y3 // + ε
	VMULPD  Y1, Y14, Y1 // lr·m̂
	VDIVPD  Y3, Y1, Y1
	VMOVUPD (DI)(BX*8), Y5
	VSUBPD  Y1, Y5, Y5
	VMOVUPD Y5, (DI)(BX*8)
	ADDQ    $4, BX
	DECQ    CX
	JNZ     adamloop
	VZEROUPPER

adamdone:
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
