// The 8-lane X25519 kernels on AVX-512 IFMA (vpmadd52luq/vpmadd52huq):
// eight (scalar, point) pairs per Montgomery ladder, and eight scalars per
// signed radix-16 comb over one X25519Precomp table.
//
// Field elements keep the 5 x 51-bit limbs of fe25519.h, one element per
// 64-bit lane. vpmadd52 multiplies the low 52 bits of two lanes and adds the
// low or the high 52 bits of the 104-bit product to an accumulator, so every
// limb fed to a multiply must be below 2^52. The bounds that keep it there:
//
//   - Mul, Sq, AddCarry, SubCarry and MulSmallAdd all end in Carry, which
//     returns limbs below 2^51 + 2^14 ("carried").
//   - Mul and Sq take carried inputs (or the loaded point, or a comb table
//     entry, both below 2^51). Each partial product's low and high halves
//     are below 2^52, a product column sums at most five of each, so column
//     k of the unreduced product is below 15 * 2^52, and after folding
//     columns 5..9 back times 19 (2^255 = 19 mod p) each limb is below
//     300 * 2^52 < 2^61.
//   - Carry moves each limb's bits above 51 into the next limb at once (the
//     top limb's into limb 0, times 19). From a product's limbs, below
//     600 * 2^51, the carries are below 600, and 19 times that is below
//     2^14; from a sum or difference, below 2^53, they are below 4.
//   - SubCarry adds 2p before subtracting, which cannot underflow because a
//     carried limb is below 2p's smallest limb, 2^52 - 38.
//
// Each lane has its own scalar. Its bits are read at positions that depend
// only on the ladder step, and each lane's bit only ever becomes that lane's
// all-ones or all-zeros swap mask, so no branch and no memory index depends
// on any lane's scalar (X25519Many is the case where all eight are equal).
// Each lane runs its own Fermat inversion at the end, so a low-order point
// (z = 0) gives the all-zero secret in its lane, as the portable ladder
// does, and no lane's value can reach another's.
//
// The comb (Comb8) shares one table among its eight lanes. Each lane recodes
// its own clamped scalar into 64 signed digits. A digit picks its table entry
// by a scan of all eight entries of its level: each entry is broadcast to
// every lane and kept where the lane's |digit| equals its index, and a lane
// with a negative digit negates it by masked blends. So a digit only ever
// becomes that lane's compare mask: never a branch, and never an address.

#include "src/crypto/x25519_internal.h"

#ifdef VUVUZELA_X25519_IFMA_KERNEL

#include <immintrin.h>

#include <algorithm>
#include <cstring>

#include "src/crypto/fe25519.h"
#include "src/crypto/x25519_precomp.h"

#define VUVUZELA_IFMA_TARGET __attribute__((target("avx512f,avx512ifma")))
#define VUVUZELA_IFMA_INLINE inline __attribute__((target("avx512f,avx512ifma"), always_inline))

namespace vuvuzela::crypto::internal {

namespace {

// One 8-lane ladder costs about as much as one portable ladder, so a
// remainder this long or longer is worth padding into a full group.
constexpr size_t kMinTail = 2;

// Eight field elements: lane l of v[i] is limb i of element l.
struct Fe8 {
  __m512i v[5];
};

// Lane-wise 64-bit shifts through the vector extension: GCC's
// _mm512_s{l,r}li_epi64 (and _mm512_abs_epi64) trip its own -Wuninitialized.
using U64x8 = uint64_t __attribute__((vector_size(64)));
using I64x8 = int64_t __attribute__((vector_size(64)));

// The limb loops below must unroll, at -O2 too, or their arrays of vectors
// live in memory; hence the unroll pragmas.

VUVUZELA_IFMA_INLINE __m512i Add(__m512i a, __m512i b) { return _mm512_add_epi64(a, b); }
VUVUZELA_IFMA_INLINE __m512i Shl(__m512i a, int n) {
  return reinterpret_cast<__m512i>(reinterpret_cast<U64x8>(a) << n);
}
VUVUZELA_IFMA_INLINE __m512i Shr(__m512i a, int n) {
  return reinterpret_cast<__m512i>(reinterpret_cast<U64x8>(a) >> n);
}

VUVUZELA_IFMA_INLINE Fe8 Broadcast(uint64_t limb0) {
  Fe8 out;
  out.v[0] = _mm512_set1_epi64(static_cast<long long>(limb0));
#pragma GCC unroll 10
  for (int i = 1; i < 5; ++i) {
    out.v[i] = _mm512_setzero_si512();
  }
  return out;
}

// One parallel carry round over limbs below 2^63.
VUVUZELA_IFMA_INLINE void Carry(Fe8& out, const __m512i t[5]) {
  const __m512i mask = _mm512_set1_epi64(fe25519::kMask51);
  __m512i c[5];
#pragma GCC unroll 10
  for (int i = 0; i < 5; ++i) {
    c[i] = Shr(t[i], 51);
  }
  // c[4] < 2^12, so the 52-bit multiply by 19 is exact.
  out.v[0] = _mm512_madd52lo_epu64(_mm512_and_si512(t[0], mask), c[4], _mm512_set1_epi64(19));
#pragma GCC unroll 10
  for (int i = 1; i < 5; ++i) {
    out.v[i] = Add(_mm512_and_si512(t[i], mask), c[i - 1]);
  }
}

// Folds the ten columns of an unreduced product (each below 2^57) into five
// limbs and carries them.
VUVUZELA_IFMA_INLINE void Reduce(Fe8& out, const __m512i col[10]) {
  __m512i t[5];
#pragma GCC unroll 10
  for (int i = 0; i < 5; ++i) {
    const __m512i high = col[i + 5];
    // 19 * high = high + 2 * high + 16 * high.
    const __m512i high19 =
        Add(Add(high, Shl(high, 1)), Shl(high, 4));
    t[i] = Add(col[i], high19);
  }
  Carry(out, t);
}

// out = a * b. A partial product a_i b_j = lo + 2^52 hi adds lo to column
// i + j and, since 2^52 = 2 * 2^51, 2 hi to column i + j + 1.
VUVUZELA_IFMA_INLINE void Mul(Fe8& out, const Fe8& a, const Fe8& b) {
  __m512i lo[10], hi[10];
#pragma GCC unroll 10
  for (int k = 0; k < 10; ++k) {
    lo[k] = _mm512_setzero_si512();
    hi[k] = _mm512_setzero_si512();
  }
#pragma GCC unroll 10
  for (int i = 0; i < 5; ++i) {
#pragma GCC unroll 10
    for (int j = 0; j < 5; ++j) {
      lo[i + j] = _mm512_madd52lo_epu64(lo[i + j], a.v[i], b.v[j]);
      hi[i + j + 1] = _mm512_madd52hi_epu64(hi[i + j + 1], a.v[i], b.v[j]);
    }
  }
  __m512i col[10];
#pragma GCC unroll 10
  for (int k = 0; k < 10; ++k) {
    col[k] = Add(lo[k], Add(hi[k], hi[k]));
  }
  Reduce(out, col);
}

// out = a^2 with the 10 cross products a_i a_j (i < j) taken once and
// doubled: column k is diag_lo + 2 (cross_lo + diag_hi) + 4 cross_hi.
VUVUZELA_IFMA_INLINE void Sq(Fe8& out, const Fe8& a) {
  __m512i once[10], twice[10], four[10];
#pragma GCC unroll 10
  for (int k = 0; k < 10; ++k) {
    once[k] = _mm512_setzero_si512();
    twice[k] = _mm512_setzero_si512();
    four[k] = _mm512_setzero_si512();
  }
#pragma GCC unroll 10
  for (int i = 0; i < 5; ++i) {
    once[2 * i] = _mm512_madd52lo_epu64(once[2 * i], a.v[i], a.v[i]);
    twice[2 * i + 1] = _mm512_madd52hi_epu64(twice[2 * i + 1], a.v[i], a.v[i]);
#pragma GCC unroll 10
    for (int j = i + 1; j < 5; ++j) {
      twice[i + j] = _mm512_madd52lo_epu64(twice[i + j], a.v[i], a.v[j]);
      four[i + j + 1] = _mm512_madd52hi_epu64(four[i + j + 1], a.v[i], a.v[j]);
    }
  }
  __m512i col[10];
#pragma GCC unroll 10
  for (int k = 0; k < 10; ++k) {
    const __m512i doubled = Add(twice[k], Add(four[k], four[k]));
    col[k] = Add(once[k], Add(doubled, doubled));
  }
  Reduce(out, col);
}

VUVUZELA_IFMA_INLINE void AddCarry(Fe8& out, const Fe8& a, const Fe8& b) {
  __m512i t[5];
#pragma GCC unroll 10
  for (int i = 0; i < 5; ++i) {
    t[i] = Add(a.v[i], b.v[i]);
  }
  Carry(out, t);
}

// out = a - b + 2p.
VUVUZELA_IFMA_INLINE void SubCarry(Fe8& out, const Fe8& a, const Fe8& b) {
  __m512i t[5];
  t[0] = _mm512_sub_epi64(Add(a.v[0], _mm512_set1_epi64(0xfffffffffffdaLL)), b.v[0]);
#pragma GCC unroll 10
  for (int i = 1; i < 5; ++i) {
    t[i] = _mm512_sub_epi64(Add(a.v[i], _mm512_set1_epi64(0xffffffffffffeLL)), b.v[i]);
  }
  Carry(out, t);
}

// out = a + k * e for a constant k below 2^52. The high half of e_4 k wraps
// to limb 0 as 2 * 19 = 38 times itself.
VUVUZELA_IFMA_INLINE void MulSmallAdd(Fe8& out, const Fe8& a, const Fe8& e, uint64_t k) {
  const __m512i kv = _mm512_set1_epi64(static_cast<long long>(k));
  __m512i hi[5], t[5];
#pragma GCC unroll 10
  for (int i = 0; i < 5; ++i) {
    hi[i] = _mm512_madd52hi_epu64(_mm512_setzero_si512(), e.v[i], kv);
    t[i] = _mm512_madd52lo_epu64(a.v[i], e.v[i], kv);
  }
  t[0] = _mm512_madd52lo_epu64(t[0], hi[4], _mm512_set1_epi64(38));
#pragma GCC unroll 10
  for (int i = 1; i < 5; ++i) {
    t[i] = Add(t[i], Add(hi[i - 1], hi[i - 1]));
  }
  Carry(out, t);
}

// Swaps a and b in every lane where mask is all ones; mask is all ones or
// all zeros in every lane.
VUVUZELA_IFMA_INLINE void Cswap(__m512i mask, Fe8& a, Fe8& b) {
#pragma GCC unroll 10
  for (int i = 0; i < 5; ++i) {
    const __m512i x = _mm512_and_si512(mask, _mm512_xor_si512(a.v[i], b.v[i]));
    a.v[i] = _mm512_xor_si512(a.v[i], x);
    b.v[i] = _mm512_xor_si512(b.v[i], x);
  }
}

VUVUZELA_IFMA_INLINE void SqTimes(Fe8& out, const Fe8& a, int n) {
  Sq(out, a);
  for (int i = 1; i < n; ++i) {
    Sq(out, out);
  }
}

// out = z^(p-2) lane by lane: fe25519::FeInvert's addition chain. The
// inverse of 0 is 0.
VUVUZELA_IFMA_INLINE void Invert(Fe8& out, const Fe8& z) {
  Fe8 t0, t1, t2, t3;
  Sq(t0, z);            // 2
  SqTimes(t1, t0, 2);   // 8
  Mul(t1, z, t1);       // 9
  Mul(t0, t0, t1);      // 11
  Sq(t2, t0);           // 22
  Mul(t1, t1, t2);      // 2^5 - 1
  SqTimes(t2, t1, 5);   // 2^10 - 2^5
  Mul(t1, t2, t1);      // 2^10 - 1
  SqTimes(t2, t1, 10);  // 2^20 - 2^10
  Mul(t2, t2, t1);      // 2^20 - 1
  SqTimes(t3, t2, 20);  // 2^40 - 2^20
  Mul(t2, t3, t2);      // 2^40 - 1
  SqTimes(t2, t2, 10);  // 2^50 - 2^10
  Mul(t1, t2, t1);      // 2^50 - 1
  SqTimes(t2, t1, 50);  // 2^100 - 2^50
  Mul(t2, t2, t1);      // 2^100 - 1
  SqTimes(t3, t2, 100); // 2^200 - 2^100
  Mul(t2, t3, t2);      // 2^200 - 1
  SqTimes(t2, t2, 50);  // 2^250 - 2^50
  Mul(t1, t2, t1);      // 2^250 - 1
  SqTimes(t1, t1, 5);   // 2^255 - 2^5
  Mul(out, t1, t0);     // 2^255 - 21
}

// out[l] = X25519(scalars[l * stride], points[l]) for eight lanes. Each
// lane's clamped scalar is held as four 64-bit words, so bit t of every lane
// is one shift of word t / 64: the step, never a scalar, picks what is read.
VUVUZELA_IFMA_TARGET void Ladder8(const X25519SecretKey* scalars, size_t stride,
                                  const X25519PublicKey* points, X25519SharedSecret* out) {
  alignas(64) uint64_t words[4][kX25519IfmaLanes];
  alignas(64) uint64_t limbs[5][kX25519IfmaLanes] = {};
  for (size_t l = 0; l < kX25519IfmaLanes; ++l) {
    uint8_t e[32];
    std::memcpy(e, scalars[l * stride].data(), 32);
    e[0] &= 248;
    e[31] &= 127;
    e[31] |= 64;
    for (int w = 0; w < 4; ++w) {
      std::memcpy(&words[w][l], e + 8 * w, 8);  // little-endian, as x86-64 is
    }
    // FeFromBytes drops bit 255 of u, as RFC 7748 asks.
    fe25519::Fe u;
    fe25519::FeFromBytes(u, points[l].data());
    for (int i = 0; i < 5; ++i) {
      limbs[i][l] = u.v[i];
    }
  }
  __m512i k[4];
  for (int w = 0; w < 4; ++w) {
    k[w] = _mm512_load_si512(words[w]);
  }
  Fe8 x1;
  for (int i = 0; i < 5; ++i) {
    x1.v[i] = _mm512_load_si512(limbs[i]);
  }

  const __m512i one = _mm512_set1_epi64(1);
  Fe8 x2 = Broadcast(1);
  Fe8 z2 = Broadcast(0);
  Fe8 x3 = x1;
  Fe8 z3 = Broadcast(1);
  __m512i swap = _mm512_setzero_si512();
  for (int t = 254; t >= 0; --t) {
    const __m512i k_t = _mm512_and_si512(Shr(k[t / 64], t % 64), one);
    swap = _mm512_xor_si512(swap, k_t);
    const __m512i mask = _mm512_sub_epi64(_mm512_setzero_si512(), swap);
    Cswap(mask, x2, x3);
    Cswap(mask, z2, z3);
    swap = k_t;

    Fe8 a, aa, b, bb, eiv, c, d, da, cb, tmp;
    AddCarry(a, x2, z2);
    Sq(aa, a);
    SubCarry(b, x2, z2);
    Sq(bb, b);
    SubCarry(eiv, aa, bb);
    AddCarry(c, x3, z3);
    SubCarry(d, x3, z3);
    Mul(da, d, a);
    Mul(cb, c, b);

    AddCarry(tmp, da, cb);
    Sq(x3, tmp);
    SubCarry(tmp, da, cb);
    Sq(tmp, tmp);
    Mul(z3, x1, tmp);

    Mul(x2, aa, bb);
    MulSmallAdd(tmp, aa, eiv, 121665);
    Mul(z2, eiv, tmp);
  }
  const __m512i mask = _mm512_sub_epi64(_mm512_setzero_si512(), swap);
  Cswap(mask, x2, x3);
  Cswap(mask, z2, z3);

  Fe8 z_inv, result;
  Invert(z_inv, z2);
  Mul(result, x2, z_inv);
  for (int i = 0; i < 5; ++i) {
    _mm512_store_si512(limbs[i], result.v[i]);
  }
  for (size_t l = 0; l < kX25519IfmaLanes; ++l) {
    fe25519::Fe r;
    for (int i = 0; i < 5; ++i) {
      r.v[i] = limbs[i][l];
    }
    fe25519::FeToBytes(out[l].data(), r);
  }
}

// A point of the comb's running sum in each lane, in extended twisted Edwards
// coordinates: x = X/Z, y = Y/Z, T = XY/Z.
struct Ext8 {
  Fe8 X, Y, Z, T;
};

// h += (y+x, y-x, 2dxy) lane by lane: x25519_precomp.cc's MAdd, then ToP3.
VUVUZELA_IFMA_INLINE void MAdd(Ext8& h, const Fe8& y_plus_x, const Fe8& y_minus_x,
                               const Fe8& xy2d) {
  Fe8 a, b, c, d, e, f, g, s;
  AddCarry(a, h.Y, h.X);
  SubCarry(b, h.Y, h.X);
  Mul(a, a, y_plus_x);
  Mul(b, b, y_minus_x);
  Mul(c, xy2d, h.T);
  AddCarry(d, h.Z, h.Z);
  SubCarry(e, a, b);
  AddCarry(s, a, b);
  AddCarry(g, d, c);
  SubCarry(f, d, c);
  Mul(h.X, e, f);
  Mul(h.Y, s, g);
  Mul(h.Z, g, f);
  Mul(h.T, e, s);
}

// h = 2h lane by lane: x25519_precomp.cc's Dbl, then ToP3.
VUVUZELA_IFMA_INLINE void Dbl(Ext8& h) {
  Fe8 xx, yy, zz2, s, sum, diff, x, t;
  Sq(xx, h.X);
  Sq(yy, h.Y);
  Sq(zz2, h.Z);
  AddCarry(zz2, zz2, zz2);
  AddCarry(s, h.X, h.Y);
  Sq(s, s);
  AddCarry(sum, yy, xx);
  SubCarry(diff, yy, xx);
  SubCarry(x, s, sum);
  SubCarry(t, zz2, diff);
  Mul(h.X, x, t);
  Mul(h.Y, sum, diff);
  Mul(h.Z, diff, t);
  Mul(h.T, x, sum);
}

// Each lane's entry of `row` for its digit d in [-8, 8]: entry |d| - 1,
// negated where d < 0, or the identity (1, 1, 0) where d = 0, as
// X25519Precomp::Select picks it.
VUVUZELA_IFMA_INLINE void Select(Fe8& y_plus_x, Fe8& y_minus_x, Fe8& xy2d,
                                 const X25519Precomp::Niels row[8], __m512i digits) {
  // |d| as (d ^ s) - s with s = d >> 63, all ones where d < 0.
  const __m512i sign = reinterpret_cast<__m512i>(reinterpret_cast<I64x8>(digits) >> 63);
  const __m512i abs = _mm512_sub_epi64(_mm512_xor_si512(digits, sign), sign);
  y_plus_x = Broadcast(1);
  y_minus_x = Broadcast(1);
  xy2d = Broadcast(0);
  for (int j = 0; j < 8; ++j) {
    const __mmask8 match = _mm512_cmpeq_epi64_mask(abs, _mm512_set1_epi64(j + 1));
#pragma GCC unroll 10
    for (int i = 0; i < 5; ++i) {
      y_plus_x.v[i] = _mm512_mask_set1_epi64(y_plus_x.v[i], match,
                                             static_cast<long long>(row[j].y_plus_x.v[i]));
      y_minus_x.v[i] = _mm512_mask_set1_epi64(y_minus_x.v[i], match,
                                              static_cast<long long>(row[j].y_minus_x.v[i]));
      xy2d.v[i] = _mm512_mask_set1_epi64(xy2d.v[i], match,
                                         static_cast<long long>(row[j].xy2d.v[i]));
    }
  }
  // Negation swaps y+x with y-x and negates 2dxy.
  const __mmask8 negative = _mm512_test_epi64_mask(sign, sign);
  Fe8 minus_xy2d;
  SubCarry(minus_xy2d, Broadcast(0), xy2d);
#pragma GCC unroll 10
  for (int i = 0; i < 5; ++i) {
    const __m512i plus = y_plus_x.v[i];
    y_plus_x.v[i] = _mm512_mask_blend_epi64(negative, plus, y_minus_x.v[i]);
    y_minus_x.v[i] = _mm512_mask_blend_epi64(negative, y_minus_x.v[i], plus);
    xy2d.v[i] = _mm512_mask_blend_epi64(negative, xy2d.v[i], minus_xy2d.v[i]);
  }
}

// out[l] = X25519Precomp::Mult(scalars[l]) over `table` for l < lanes
// (1 to 8); idle lanes repeat the last scalar and their results are dropped.
// X25519Precomp::Mult's comb, lane by lane: the odd digits against their
// levels, four doublings, the even digits, then u = (Z+Y)/(Z-Y).
VUVUZELA_IFMA_TARGET void Comb8(const X25519Precomp::Niels (*table)[8],
                                const X25519SecretKey* scalars, size_t lanes,
                                X25519SharedSecret* out) {
  alignas(64) int64_t digits[64][kX25519IfmaLanes];
  for (size_t l = 0; l < kX25519IfmaLanes; ++l) {
    int8_t lane_digits[64];
    CombDigits(scalars[std::min(l, lanes - 1)], lane_digits);
    for (int i = 0; i < 64; ++i) {
      digits[i][l] = lane_digits[i];
    }
  }

  Ext8 h{Broadcast(0), Broadcast(1), Broadcast(1), Broadcast(0)};
  Fe8 y_plus_x, y_minus_x, xy2d;
  for (int i = 1; i < 64; i += 2) {
    Select(y_plus_x, y_minus_x, xy2d, table[i / 2], _mm512_load_si512(digits[i]));
    MAdd(h, y_plus_x, y_minus_x, xy2d);
  }
  for (int k = 0; k < 4; ++k) {
    Dbl(h);
  }
  for (int i = 0; i < 64; i += 2) {
    Select(y_plus_x, y_minus_x, xy2d, table[i / 2], _mm512_load_si512(digits[i]));
    MAdd(h, y_plus_x, y_minus_x, xy2d);
  }

  // The identity has Z = Y, so its lane inverts 0 and gets u = 0, as Mult.
  Fe8 z_plus_y, z_minus_y, inverse, u;
  AddCarry(z_plus_y, h.Z, h.Y);
  SubCarry(z_minus_y, h.Z, h.Y);
  Invert(inverse, z_minus_y);
  Mul(u, z_plus_y, inverse);
  alignas(64) uint64_t limbs[5][kX25519IfmaLanes];
  for (int i = 0; i < 5; ++i) {
    _mm512_store_si512(limbs[i], u.v[i]);
  }
  for (size_t l = 0; l < lanes; ++l) {
    fe25519::Fe r;
    for (int i = 0; i < 5; ++i) {
      r.v[i] = limbs[i][l];
    }
    fe25519::FeToBytes(out[l].data(), r);
  }
}

}  // namespace

void X25519CombLanesIfma(const X25519Precomp& table, const X25519SecretKey* scalars,
                         X25519SharedSecret* out, size_t n) {
  for (size_t i = 0; i < n; i += kX25519IfmaLanes) {
    Comb8(table.table_, scalars + i, std::min(kX25519IfmaLanes, n - i), out + i);
  }
}

void X25519LanesIfma(const X25519SecretKey* scalars, size_t scalar_stride,
                     const X25519PublicKey* points, X25519SharedSecret* out, size_t n) {
  size_t i = 0;
  for (; i + kX25519IfmaLanes <= n; i += kX25519IfmaLanes) {
    Ladder8(scalars + i * scalar_stride, scalar_stride, points + i, out + i);
  }
  const size_t tail = n - i;
  if (tail >= kMinTail) {
    // Idle lanes repeat the last pair; their results are dropped.
    X25519SecretKey padded_scalars[kX25519IfmaLanes];
    X25519PublicKey padded_points[kX25519IfmaLanes];
    X25519SharedSecret results[kX25519IfmaLanes];
    for (size_t l = 0; l < kX25519IfmaLanes; ++l) {
      const size_t j = i + std::min(l, tail - 1);
      padded_scalars[l] = scalars[j * scalar_stride];
      padded_points[l] = points[j];
    }
    Ladder8(padded_scalars, 1, padded_points, results);
    std::copy(results, results + tail, out + i);
  } else if (tail > 0) {
    X25519LanesPortable(scalars + i * scalar_stride, scalar_stride, points + i, out + i, tail);
  }
}

bool CpuHasAvx512Ifma() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512ifma");
}

}  // namespace vuvuzela::crypto::internal

#else

namespace vuvuzela::crypto::internal {

bool CpuHasAvx512Ifma() { return false; }

}  // namespace vuvuzela::crypto::internal

#endif  // VUVUZELA_X25519_IFMA_KERNEL
