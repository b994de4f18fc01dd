// Fixed-point X25519 via precomputed twisted-Edwards comb tables.
//
// Strategy: lift the Montgomery u-coordinate to the birationally-equivalent
// twisted Edwards curve -x^2 + y^2 = 1 + d x^2 y^2 (the Ed25519 curve), build
// a 32x8 table of odd multiples j * 16^(2i) * P in affine "niels" form, and
// evaluate k*P with a signed radix-16 comb: 64 table additions plus 4
// doublings, against ~255 ladder steps for the generic path. The result is
// mapped back to Montgomery u = (Z+Y)/(Z-Y), which is invariant under Edwards
// negation, so the square-root sign chosen during the lift cannot affect the
// output — this is what makes bit-identity with the ladder provable rather
// than probable.
//
// Field-element bounds discipline: fe25519 limbs out of FeMul/FeSquare are
// tight (< 2^52); FeAdd of two tight values is < 2^53. FeSub carries a 2p
// bias, which only absorbs tight subtrahends; where the subtrahend can be a
// sum (< 2^53) we use the locally-defined FeSubWide (4p bias). Every FeMul
// input stays < 2^54.5, comfortably inside the uint128 accumulation headroom.
// The table entries themselves are stored canonical (limbs below 2^51), so
// the IFMA comb in x25519_ifma.cc reads them as they are.

#include "src/crypto/x25519_precomp.h"

#include <cstring>
#include <stdexcept>

#include "src/crypto/x25519_internal.h"

namespace vuvuzela::crypto {

namespace {

using fe25519::Fe;
using fe25519::FeAdd;
using fe25519::FeCmov;
using fe25519::FeFromBytes;
using fe25519::FeInvert;
using fe25519::FeIsZero;
using fe25519::FeMul;
using fe25519::FeNeg;
using fe25519::FeOne;
using fe25519::FePow22523;
using fe25519::FeSquare;
using fe25519::FeSub;
using fe25519::FeToBytes;
using fe25519::FeZero;

// a - b with a 4p per-limb bias. Plain FeSub's 2p bias underflows when b's
// limbs reach 2^53 (a sum of two products); this variant absorbs them.
inline void FeSubWide(Fe& out, const Fe& a, const Fe& b) {
  out.v[0] = a.v[0] + 0x1fffffffffffb4ULL - b.v[0];
  out.v[1] = a.v[1] + 0x1ffffffffffffcULL - b.v[1];
  out.v[2] = a.v[2] + 0x1ffffffffffffcULL - b.v[2];
  out.v[3] = a.v[3] + 0x1ffffffffffffcULL - b.v[3];
  out.v[4] = a.v[4] + 0x1ffffffffffffcULL - b.v[4];
}

// Variable-time modular exponentiation; only ever used on public constants
// during one-time table initialization.
Fe PowVarTime(const Fe& base, const uint8_t exp[32]) {
  Fe result = FeOne();
  Fe sq = base;
  for (int bit = 0; bit < 256; ++bit) {
    if ((exp[bit / 8] >> (bit % 8)) & 1) {
      FeMul(result, result, sq);
    }
    FeSquare(sq, sq);
  }
  return result;
}

// Curve constants, derived once at first use rather than hardcoded so the
// only pinned magic numbers in the crypto layer remain the RFC test vectors.
struct EdwardsConsts {
  Fe d;       // -121665/121666
  Fe d2;      // 2d
  Fe sqrtm1;  // sqrt(-1) = 2^((p-1)/4); 2 is a non-residue since p = 5 mod 8
};

const EdwardsConsts& Consts() {
  static const EdwardsConsts consts = [] {
    EdwardsConsts c;
    Fe n121665{{121665, 0, 0, 0, 0}};
    Fe n121666{{121666, 0, 0, 0, 0}};
    Fe inv;
    FeInvert(inv, n121666);
    Fe d_pos;
    FeMul(d_pos, n121665, inv);
    FeNeg(c.d, d_pos);
    FeAdd(c.d2, c.d, c.d);

    // (p-1)/4 = 2^253 - 5, little-endian.
    uint8_t exp[32];
    std::memset(exp, 0xff, sizeof(exp));
    exp[0] = 0xfb;
    exp[31] = 0x1f;
    Fe two{{2, 0, 0, 0, 0}};
    c.sqrtm1 = PowVarTime(two, exp);
    return c;
  }();
  return consts;
}

// Extended coordinates: x = X/Z, y = Y/Z, T = XY/Z.
struct P3 {
  Fe X, Y, Z, T;
};

// Intermediate (X:Y:Z:T) with x = X/Z * 1/T... the standard ref10 "p1p1"
// completion form: convert via ToP3 before reuse.
struct P1P1 {
  Fe X, Y, Z, T;
};

// Projective cached form of a P3 point, for point+point addition.
struct Cached {
  Fe YplusX, YminusX, Z, T2d;
};

P3 IdentityP3() {
  P3 p;
  p.X = FeZero();
  p.Y = FeOne();
  p.Z = FeOne();
  p.T = FeZero();
  return p;
}

void ToP3(P3& r, const P1P1& p) {
  FeMul(r.X, p.X, p.T);
  FeMul(r.Y, p.Y, p.Z);
  FeMul(r.Z, p.Z, p.T);
  FeMul(r.T, p.X, p.Y);
}

void ToCached(Cached& r, const P3& p) {
  FeAdd(r.YplusX, p.Y, p.X);
  FeSub(r.YminusX, p.Y, p.X);
  r.Z = p.Z;
  FeMul(r.T2d, p.T, Consts().d2);
}

// r = p + q (complete twisted Edwards addition; Z is never 0 for curve
// points because d is a non-square).
void Add(P1P1& r, const P3& p, const Cached& q) {
  Fe t0;
  FeAdd(r.X, p.Y, p.X);
  FeSub(r.Y, p.Y, p.X);
  FeMul(r.Z, r.X, q.YplusX);
  FeMul(r.Y, r.Y, q.YminusX);
  FeMul(r.T, q.T2d, p.T);
  FeMul(r.X, p.Z, q.Z);
  FeAdd(t0, r.X, r.X);
  FeSub(r.X, r.Z, r.Y);
  FeAdd(r.Y, r.Z, r.Y);
  FeAdd(r.Z, t0, r.T);
  FeSub(r.T, t0, r.T);
}

// r = p + q where q is an affine niels point (y+x, y-x, 2dxy). Cheaper than
// Add because q has no Z coordinate.
void MAdd(P1P1& r, const P3& p, const Fe& y_plus_x, const Fe& y_minus_x, const Fe& xy2d) {
  Fe t0;
  FeAdd(r.X, p.Y, p.X);
  FeSub(r.Y, p.Y, p.X);
  FeMul(r.Z, r.X, y_plus_x);
  FeMul(r.Y, r.Y, y_minus_x);
  FeMul(r.T, xy2d, p.T);
  FeAdd(t0, p.Z, p.Z);
  FeSub(r.X, r.Z, r.Y);
  FeAdd(r.Y, r.Z, r.Y);
  FeAdd(r.Z, t0, r.T);
  FeSub(r.T, t0, r.T);
}

// r = 2p.
void Dbl(P1P1& r, const P3& p) {
  Fe t0;
  FeSquare(r.X, p.X);
  FeSquare(r.Z, p.Y);
  FeSquare(r.T, p.Z);
  FeAdd(r.T, r.T, r.T);
  FeAdd(r.Y, p.X, p.Y);
  FeSquare(t0, r.Y);
  FeAdd(r.Y, r.Z, r.X);
  FeSub(r.Z, r.Z, r.X);
  FeSubWide(r.X, t0, r.Y);
  FeSubWide(r.T, r.T, r.Z);
}

// Lifts a Montgomery u-coordinate to an Edwards point via y = (u-1)/(u+1)
// and the RFC 8032 combined square root for x. Returns false when u is not
// the x-coordinate of a curve point (twist) or the map is undefined (u = -1).
bool LiftMontgomeryU(P3& out, const uint8_t u_bytes[32]) {
  uint8_t masked[32];
  std::memcpy(masked, u_bytes, 32);
  masked[31] &= 127;  // the ladder masks the unused high bit; so must we

  Fe u;
  FeFromBytes(u, masked);
  Fe one = FeOne();
  Fe u_plus_1, u_minus_1;
  FeAdd(u_plus_1, u, one);
  FeSub(u_minus_1, u, one);
  if (FeIsZero(u_plus_1)) {
    return false;
  }
  Fe inv;
  FeInvert(inv, u_plus_1);
  Fe y;
  FeMul(y, u_minus_1, inv);

  // x^2 = (y^2 - 1) / (d y^2 + 1) = num / den.
  Fe yy, num, den;
  FeSquare(yy, y);
  FeSub(num, yy, one);
  FeMul(den, yy, Consts().d);
  FeAdd(den, den, one);

  // Candidate x = num * den^3 * (num * den^7)^((p-5)/8).
  Fe den3, den7, t, x;
  FeSquare(den3, den);
  FeMul(den3, den3, den);
  FeSquare(den7, den3);
  FeMul(den7, den7, den);
  FeMul(t, num, den7);
  FePow22523(t, t);
  FeMul(x, den3, t);
  FeMul(x, x, num);

  // x^2 * den must be +-num; the minus case multiplies by sqrt(-1).
  Fe chk, diff, sum;
  FeSquare(chk, x);
  FeMul(chk, chk, den);
  FeSubWide(diff, chk, num);
  FeAdd(sum, chk, num);
  if (FeIsZero(diff)) {
    // x already correct.
  } else if (FeIsZero(sum)) {
    FeMul(x, x, Consts().sqrtm1);
  } else {
    return false;
  }

  out.X = x;
  out.Y = y;
  out.Z = FeOne();
  FeMul(out.T, x, y);
  return true;
}

// f with canonical limbs, each below 2^51; the value is unchanged.
void FeCanonical(Fe& f) {
  uint8_t bytes[32];
  FeToBytes(bytes, f);
  FeFromBytes(f, bytes);
}

// Constant-time byte equality: 1 iff a == b.
inline uint64_t CtEq(uint8_t a, uint8_t b) {
  uint64_t x = a ^ b;
  return (x - 1) >> 63;
}

}  // namespace

bool X25519Precomp::Fill(const X25519PublicKey& point) {
  P3 base;
  if (!LiftMontgomeryU(base, point.data())) {
    return false;
  }
  point_ = point;

  // The 256 multiples j * 16^(2i) * P are built kChunkLevels levels at a
  // time in extended coordinates, and each chunk goes affine with one batch
  // inversion (Montgomery's trick), straight into its table rows. A chunk's
  // points and prefix products take about 6 KB of stack; no temporary holds
  // the whole table.
  constexpr int kChunkLevels = 4;
  constexpr int kChunk = kChunkLevels * 8;
  P3 level_base = base;
  for (int first = 0; first < 32; first += kChunkLevels) {
    P3 pts[kChunk];
    for (int l = 0; l < kChunkLevels; ++l) {
      P3* row = pts + l * 8;
      row[0] = level_base;
      Cached cb;
      ToCached(cb, level_base);
      for (int j = 1; j < 8; ++j) {
        P1P1 s;
        Add(s, row[j - 1], cb);
        ToP3(row[j], s);
      }
      if (first + l + 1 < 32) {
        // Next level's base is 16^2 * current base: 8 doublings.
        for (int k = 0; k < 8; ++k) {
          P1P1 s;
          Dbl(s, level_base);
          ToP3(level_base, s);
        }
      }
    }

    Fe prefix[kChunk];
    Fe acc = FeOne();
    for (int i = 0; i < kChunk; ++i) {
      prefix[i] = acc;
      FeMul(acc, acc, pts[i].Z);
    }
    Fe inv_all;
    FeInvert(inv_all, acc);
    for (int i = kChunk - 1; i >= 0; --i) {
      Fe zinv;
      FeMul(zinv, inv_all, prefix[i]);
      FeMul(inv_all, inv_all, pts[i].Z);
      Fe x, y, xy;
      FeMul(x, pts[i].X, zinv);
      FeMul(y, pts[i].Y, zinv);
      Niels& e = table_[first + i / 8][i % 8];
      FeAdd(e.y_plus_x, y, x);
      FeSub(e.y_minus_x, y, x);
      FeMul(xy, x, y);
      FeMul(e.xy2d, xy, Consts().d2);
      FeCanonical(e.y_plus_x);
      FeCanonical(e.y_minus_x);
      FeCanonical(e.xy2d);
    }
  }
  return true;
}

std::unique_ptr<X25519Precomp> X25519Precomp::New(const X25519PublicKey& point) {
  std::unique_ptr<X25519Precomp> table(new X25519Precomp);
  if (!table->Fill(point)) {
    return nullptr;
  }
  return table;
}

std::optional<X25519Precomp> X25519Precomp::Create(const X25519PublicKey& point) {
  std::unique_ptr<X25519Precomp> table = New(point);
  if (!table) {
    return std::nullopt;
  }
  return *table;
}

void X25519Precomp::Select(Niels& t, int level, int8_t digit) const {
  const uint64_t negative = static_cast<uint8_t>(digit) >> 7;
  const uint8_t babs =
      static_cast<uint8_t>(digit - ((-static_cast<int>(negative) & static_cast<int>(digit)) << 1));

  t.y_plus_x = FeOne();
  t.y_minus_x = FeOne();
  t.xy2d = FeZero();
  for (uint8_t j = 0; j < 8; ++j) {
    const uint64_t match = CtEq(babs, static_cast<uint8_t>(j + 1));
    FeCmov(t.y_plus_x, table_[level][j].y_plus_x, match);
    FeCmov(t.y_minus_x, table_[level][j].y_minus_x, match);
    FeCmov(t.xy2d, table_[level][j].xy2d, match);
  }
  // Negation swaps (y+x, y-x) and flips xy2d.
  Niels minus;
  minus.y_plus_x = t.y_minus_x;
  minus.y_minus_x = t.y_plus_x;
  FeNeg(minus.xy2d, t.xy2d);
  FeCmov(t.y_plus_x, minus.y_plus_x, negative);
  FeCmov(t.y_minus_x, minus.y_minus_x, negative);
  FeCmov(t.xy2d, minus.xy2d, negative);
}

namespace internal {

void CombDigits(const X25519SecretKey& scalar, int8_t digits[64]) {
  uint8_t e[32];
  std::memcpy(e, scalar.data(), 32);
  e[0] &= 248;
  e[31] &= 127;
  e[31] |= 64;

  for (int i = 0; i < 32; ++i) {
    digits[2 * i] = static_cast<int8_t>(e[i] & 15);
    digits[2 * i + 1] = static_cast<int8_t>(e[i] >> 4);
  }
  int8_t carry = 0;
  for (int i = 0; i < 63; ++i) {
    digits[i] = static_cast<int8_t>(digits[i] + carry);
    carry = static_cast<int8_t>((digits[i] + 8) >> 4);
    digits[i] = static_cast<int8_t>(digits[i] - (carry << 4));
  }
  digits[63] = static_cast<int8_t>(digits[63] + carry);
}

}  // namespace internal

X25519SharedSecret X25519Precomp::Mult(const X25519SecretKey& scalar) const {
  int8_t digits[64];
  internal::CombDigits(scalar, digits);

  P3 h = IdentityP3();
  Niels t;
  // Odd digits contribute e_i * 16^(i-1) * 16 * P: accumulate them against
  // table level (i-1)/2, multiply the sum by 16, then add the even digits.
  for (int i = 1; i < 64; i += 2) {
    Select(t, i / 2, digits[i]);
    P1P1 s;
    MAdd(s, h, t.y_plus_x, t.y_minus_x, t.xy2d);
    ToP3(h, s);
  }
  for (int k = 0; k < 4; ++k) {
    P1P1 s;
    Dbl(s, h);
    ToP3(h, s);
  }
  for (int i = 0; i < 64; i += 2) {
    Select(t, i / 2, digits[i]);
    P1P1 s;
    MAdd(s, h, t.y_plus_x, t.y_minus_x, t.xy2d);
    ToP3(h, s);
  }

  // Back to Montgomery: u = (Z+Y)/(Z-Y); identity maps to 0 because
  // FeInvert(0) = 0, matching the ladder's convention for the point at
  // infinity.
  Fe zpy, zmy, inv, u;
  FeAdd(zpy, h.Z, h.Y);
  FeSub(zmy, h.Z, h.Y);
  FeInvert(inv, zmy);
  FeMul(u, zpy, inv);

  X25519SharedSecret out;
  FeToBytes(out.data(), u);
  return out;
}

const X25519Precomp& X25519BasePointPrecomp() {
  // Built in its final heap slot. The base point is on the curve by
  // definition, so New cannot fail here.
  static const X25519Precomp* instance = [] {
    X25519PublicKey base{};
    base[0] = 9;
    return X25519Precomp::New(base).release();
  }();
  return *instance;
}

X25519PublicKey X25519BasePointFast(const X25519SecretKey& scalar) {
  return X25519BasePointPrecomp().Mult(scalar);
}

namespace internal {

void X25519CombLanesPortable(const X25519Precomp& table, const X25519SecretKey* scalars,
                             X25519SharedSecret* out, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = table.Mult(scalars[i]);
  }
}

X25519CombKernel SelectedCombKernel() {
#ifdef VUVUZELA_X25519_IFMA_KERNEL
  static const X25519CombKernel kernel =
      CpuHasAvx512Ifma() ? X25519CombLanesIfma : X25519CombLanesPortable;
  return kernel;
#else
  return X25519CombLanesPortable;
#endif
}

}  // namespace internal

void X25519CombLanes(const X25519Precomp& table, std::span<const X25519SecretKey> scalars,
                     std::span<X25519SharedSecret> out) {
  if (out.size() != scalars.size()) {
    throw std::invalid_argument("X25519CombLanes: scalar and output counts differ");
  }
  internal::SelectedCombKernel()(table, scalars.data(), out.data(), scalars.size());
}

}  // namespace vuvuzela::crypto
