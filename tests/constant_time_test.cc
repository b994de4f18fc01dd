// Constant-time checks for the fixed-base X25519 kernels and the
// ChaCha20-Poly1305 AEAD, by counting.
//
// Each kernel runs a few hundred times per class of secret scalar: all zero,
// all 0xff, random, and, for the 8-lane kernels, lanes that mix those
// classes. Around every call this thread's user-space retired-instruction
// and branch counters are read through perf_event_open. A single call
// jitters upward by a few instructions (an interrupt's restart, a page
// fault), never downward, so each class's minimum is a nearly exact
// oracle: a kernel whose branches or loop trips depend on the scalar shows
// different minima in different classes. Counts cannot see a
// secret-dependent memory address; that needs a timing test.
//
// Kernels: X25519Precomp::Mult (its digit recoding and Select), the
// X25519CombLanes kernels (IFMA and portable), X25519Lanes on IFMA, every
// ChaCha20 keystream kernel (over its key), Poly1305's final reduction (h
// below p, and h in [p, 2^130), where the masked select takes h - p), and
// AeadOpenInto's reject path (over where the tag differs).
// Power: two test-only stand-in combs that put a known leak back (a Select
// that stops at the matching entry, and a negation behind a branch on the
// digit's sign) must fail the same check, while the same stand-in without a
// leak passes it; so must a stand-in AEAD open whose tag compare stops at
// the first differing byte.
//
// Where the PMU cannot be read (no perf_event_open, or a paranoid setting
// above 2, or a virtual machine without counters) the tests skip and say so.
// They also skip under ThreadSanitizer, whose runtime runs on every memory
// access and branches on its own shadow state, so the counts there say
// nothing about the kernel.

#include <gtest/gtest.h>

#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/crypto/aead.h"
#include "src/crypto/chacha20_internal.h"
#include "src/crypto/fe25519.h"
#include "src/crypto/poly1305.h"
#include "src/crypto/x25519.h"
#include "src/crypto/x25519_internal.h"
#include "src/crypto/x25519_precomp.h"
#include "src/util/random.h"

namespace vuvuzela::crypto {
namespace {

#if defined(__SANITIZE_THREAD__)
constexpr bool kThreadSanitizer = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
constexpr bool kThreadSanitizer = true;
#else
constexpr bool kThreadSanitizer = false;
#endif
#else
constexpr bool kThreadSanitizer = false;
#endif

constexpr int kCalls = 300;
constexpr size_t kLanes = 8;

struct Counts {
  uint64_t instructions = 0;
  uint64_t branches = 0;
};

// This thread's user-space retired instructions and branches, one counter
// group read around each call.
class ThreadCounters {
 public:
  // The counters, or why they cannot be read here.
  static std::optional<ThreadCounters> Open(std::string& why) {
    ThreadCounters counters;
    counters.leader_ = OpenCounter(PERF_COUNT_HW_INSTRUCTIONS, -1);
    if (counters.leader_ < 0) {
      why = std::string("perf_event_open(instructions): ") + std::strerror(errno);
      return std::nullopt;
    }
    counters.branches_ = OpenCounter(PERF_COUNT_HW_BRANCH_INSTRUCTIONS, counters.leader_);
    if (counters.branches_ < 0) {
      why = std::string("perf_event_open(branches): ") + std::strerror(errno);
      return std::nullopt;
    }
    volatile uint64_t sink = 0;
    const Counts probe = counters.Measure([&] {
      for (int i = 0; i < 1000; ++i) {
        sink = sink + static_cast<uint64_t>(i);
      }
    });
    if (probe.instructions < 1000 || probe.branches < 100) {
      why = "the counters opened but do not count (no PMU in this virtual machine?)";
      return std::nullopt;
    }
    return counters;
  }

  ThreadCounters(ThreadCounters&& other) noexcept
      : leader_(std::exchange(other.leader_, -1)), branches_(std::exchange(other.branches_, -1)) {}
  ThreadCounters(const ThreadCounters&) = delete;
  ThreadCounters& operator=(const ThreadCounters&) = delete;
  ThreadCounters& operator=(ThreadCounters&&) = delete;
  ~ThreadCounters() {
    if (branches_ >= 0) {
      ::close(branches_);
    }
    if (leader_ >= 0) {
      ::close(leader_);
    }
  }

  template <typename Fn>
  Counts Measure(Fn&& fn) {
    ::ioctl(leader_, PERF_EVENT_IOC_RESET, PERF_IOC_FLAG_GROUP);
    ::ioctl(leader_, PERF_EVENT_IOC_ENABLE, PERF_IOC_FLAG_GROUP);
    fn();
    ::ioctl(leader_, PERF_EVENT_IOC_DISABLE, PERF_IOC_FLAG_GROUP);
    uint64_t values[3] = {};  // {number of counters, instructions, branches}
    if (::read(leader_, values, sizeof(values)) != static_cast<ssize_t>(sizeof(values))) {
      ADD_FAILURE() << "reading the counter group failed";
    }
    return Counts{values[1], values[2]};
  }

 private:
  ThreadCounters() = default;

  static int OpenCounter(uint64_t config, int group) {
    perf_event_attr attr{};
    attr.size = sizeof(attr);
    attr.type = PERF_TYPE_HARDWARE;
    attr.config = config;
    attr.disabled = group < 0 ? 1 : 0;
    attr.exclude_kernel = 1;
    attr.exclude_hv = 1;
    attr.read_format = PERF_FORMAT_GROUP;
    return static_cast<int>(
        ::syscall(SYS_perf_event_open, &attr, /*pid=*/0, /*cpu=*/-1, group, /*flags=*/0UL));
  }

  int leader_ = -1;
  int branches_ = -1;
};

// One class of inputs: call i runs the kernel on the class's i-th input.
struct ScalarClass {
  std::string name;
  std::function<void(int call)> run;
};

// Each class's minimum counts over kCalls calls, the classes interleaved so
// that a noisy stretch touches all of them alike.
std::vector<Counts> ClassMinima(ThreadCounters& counters, const std::vector<ScalarClass>& classes) {
  std::vector<Counts> minima(classes.size(), Counts{UINT64_MAX, UINT64_MAX});
  for (int call = 0; call < kCalls; ++call) {
    for (size_t c = 0; c < classes.size(); ++c) {
      const Counts counts = counters.Measure([&] { classes[c].run(call); });
      minima[c].instructions = std::min(minima[c].instructions, counts.instructions);
      minima[c].branches = std::min(minima[c].branches, counts.branches);
    }
  }
  return minima;
}

// Empty when every class has the same minimum instruction and branch counts;
// otherwise a line per class.
std::string ClassDifferences(ThreadCounters& counters, const std::vector<ScalarClass>& classes) {
  const std::vector<Counts> minima = ClassMinima(counters, classes);
  bool same = true;
  for (const Counts& m : minima) {
    same = same && m.instructions == minima[0].instructions && m.branches == minima[0].branches;
  }
  if (same) {
    return "";
  }
  std::string report;
  for (size_t c = 0; c < classes.size(); ++c) {
    report += "  " + classes[c].name + ": " + std::to_string(minima[c].instructions) +
              " instructions, " + std::to_string(minima[c].branches) + " branches\n";
  }
  return report;
}

// kCalls scalars of one class: all zero, all 0xff, or random.
enum class Kind { kZero, kOnes, kRandom };

std::vector<X25519SecretKey> Scalars(Kind kind, util::Rng& rng) {
  std::vector<X25519SecretKey> scalars(kCalls);
  for (X25519SecretKey& s : scalars) {
    switch (kind) {
      case Kind::kZero:
        s.fill(0x00);
        break;
      case Kind::kOnes:
        s.fill(0xff);
        break;
      case Kind::kRandom:
        rng.Fill(s);
        break;
    }
  }
  return scalars;
}

// kCalls groups of eight lane scalars: every lane of one kind, or lane l of
// kind l mod 3 (lanes that mix the classes).
using LaneScalars = std::array<X25519SecretKey, kLanes>;

std::vector<LaneScalars> Lanes(std::optional<Kind> kind, util::Rng& rng) {
  static constexpr Kind kKinds[] = {Kind::kZero, Kind::kOnes, Kind::kRandom};
  std::vector<LaneScalars> groups(kCalls);
  for (size_t l = 0; l < kLanes; ++l) {
    const std::vector<X25519SecretKey> lane = Scalars(kind ? *kind : kKinds[l % 3], rng);
    for (int call = 0; call < kCalls; ++call) {
      groups[call][l] = lane[call];
    }
  }
  return groups;
}

// The four lane classes for `kernel(group, out)`.
template <typename Kernel>
std::vector<ScalarClass> LaneClasses(Kernel kernel) {
  util::Xoshiro256Rng rng(4040);
  std::vector<ScalarClass> classes;
  auto add = [&](std::string name, std::optional<Kind> kind) {
    auto groups = std::make_shared<std::vector<LaneScalars>>(Lanes(kind, rng));
    auto run = [groups, kernel](int call) {
      std::array<X25519SharedSecret, kLanes> out;
      kernel((*groups)[call].data(), out.data());
      asm volatile("" : : "r"(out.data()) : "memory");
    };
    classes.push_back({std::move(name), run});
  };
  add("all-zero lanes", Kind::kZero);
  add("all-0xff lanes", Kind::kOnes);
  add("random lanes", Kind::kRandom);
  add("mixed lanes", std::nullopt);
  return classes;
}

// The three scalar classes for `kernel(scalar)`, which returns 32 bytes.
template <typename Kernel>
std::vector<ScalarClass> ScalarClasses(Kernel kernel) {
  util::Xoshiro256Rng rng(4041);
  std::vector<ScalarClass> classes;
  auto add = [&](std::string name, Kind kind) {
    auto scalars = std::make_shared<std::vector<X25519SecretKey>>(Scalars(kind, rng));
    auto run = [scalars, kernel](int call) {
      auto out = kernel((*scalars)[call]);
      asm volatile("" : : "r"(out.data()) : "memory");
    };
    classes.push_back({std::move(name), run});
  };
  add("zero scalar", Kind::kZero);
  add("0xff scalar", Kind::kOnes);
  add("random scalar", Kind::kRandom);
  return classes;
}

// The counters, or why this build or host cannot use them.
std::optional<ThreadCounters> OpenCounters(std::string& why) {
  if (kThreadSanitizer) {
    why = "counts are not an oracle under ThreadSanitizer";
    return std::nullopt;
  }
  std::optional<ThreadCounters> counters = ThreadCounters::Open(why);
  if (!counters) {
    why = "no user-space PMU counters here: " + why;
  }
  return counters;
}

const X25519Precomp& SuffixTable() {
  static const X25519Precomp table = [] {
    util::Xoshiro256Rng rng(4042);
    return *X25519Precomp::Create(X25519KeyPair::Generate(rng).public_key);
  }();
  return table;
}

TEST(ConstantTime, PrecompMultCountsDoNotDependOnTheScalar) {
  std::string why;
  std::optional<ThreadCounters> counters = OpenCounters(why);
  if (!counters) {
    GTEST_SKIP() << why;
  }
  auto mult = [](const X25519SecretKey& s) { return SuffixTable().Mult(s); };
  EXPECT_EQ(ClassDifferences(*counters, ScalarClasses(mult)), "");
}

TEST(ConstantTime, PortableCombLanesCountsDoNotDependOnTheScalars) {
  std::string why;
  std::optional<ThreadCounters> counters = OpenCounters(why);
  if (!counters) {
    GTEST_SKIP() << why;
  }
  auto comb = [](const X25519SecretKey* scalars, X25519SharedSecret* out) {
    internal::X25519CombLanesPortable(SuffixTable(), scalars, out, kLanes);
  };
  EXPECT_EQ(ClassDifferences(*counters, LaneClasses(comb)), "");
}

#ifdef VUVUZELA_X25519_IFMA_KERNEL
TEST(ConstantTime, IfmaCombLanesCountsDoNotDependOnTheScalars) {
  if (!internal::CpuHasAvx512Ifma()) {
    GTEST_SKIP() << "no AVX-512 IFMA kernel on this build or CPU";
  }
  std::string why;
  std::optional<ThreadCounters> counters = OpenCounters(why);
  if (!counters) {
    GTEST_SKIP() << why;
  }
  for (const X25519Precomp* table : {&X25519BasePointPrecomp(), &SuffixTable()}) {
    auto comb = [table](const X25519SecretKey* scalars, X25519SharedSecret* out) {
      internal::X25519CombLanesIfma(*table, scalars, out, kLanes);
    };
    EXPECT_EQ(ClassDifferences(*counters, LaneClasses(comb)), "");
  }
}

TEST(ConstantTime, IfmaLanesCountsDoNotDependOnTheScalars) {
  if (!internal::CpuHasAvx512Ifma()) {
    GTEST_SKIP() << "no AVX-512 IFMA kernel on this build or CPU";
  }
  std::string why;
  std::optional<ThreadCounters> counters = OpenCounters(why);
  if (!counters) {
    GTEST_SKIP() << why;
  }
  util::Xoshiro256Rng rng(4043);
  std::array<X25519PublicKey, kLanes> points;
  for (X25519PublicKey& point : points) {
    point = X25519KeyPair::Generate(rng).public_key;
  }
  auto ladder = [points](const X25519SecretKey* scalars, X25519SharedSecret* out) {
    internal::X25519LanesIfma(scalars, 1, points.data(), out, kLanes);
  };
  EXPECT_EQ(ClassDifferences(*counters, LaneClasses(ladder)), "");
}
#endif

// --- The AEAD --------------------------------------------------------------

TEST(ConstantTime, ChaCha20KernelCountsDoNotDependOnTheKey) {
  std::string why;
  std::optional<ThreadCounters> counters = OpenCounters(why);
  if (!counters) {
    GTEST_SKIP() << why;
  }
  util::Xoshiro256Rng rng(4050);
  const AeadNonce nonce = NonceFromUint64(7);
  for (const auto& [name, kernel] : internal::ChaCha20Kernels()) {
    std::vector<ScalarClass> classes;
    auto add = [&, kernel = kernel](std::string class_name, Kind kind) {
      // A key is 32 bytes, as a scalar is.
      auto keys = std::make_shared<std::vector<X25519SecretKey>>(Scalars(kind, rng));
      auto run = [keys, kernel, nonce](int call) {
        uint8_t out[internal::kChaCha20KernelBytes];
        kernel((*keys)[call], nonce, 0, internal::kChaCha20KernelBlocks, out);
        asm volatile("" : : "r"(out) : "memory");
      };
      classes.push_back({std::move(class_name), run});
    };
    add("zero key", Kind::kZero);
    add("0xff key", Kind::kOnes);
    add("random key", Kind::kRandom);
    EXPECT_EQ(ClassDifferences(*counters, classes), "") << name;
  }
}

// Poly1305 states that only Finish is left to run on: kCalls of them per
// class, each finished once.
using Poly1305States = std::vector<Poly1305>;

// r = 1 and a random s; two all-0xff blocks make h = 2 (2^128 - 1) + 2^129
// = 2^130 - 2, in [p, 2^130), so the final select takes h - p = 3.
Poly1305States AboveP(util::Rng& rng) {
  Poly1305States states;
  const util::Bytes blocks(32, 0xff);
  for (int call = 0; call < kCalls; ++call) {
    Poly1305Key key{};
    key[0] = 1;
    rng.Fill(util::MutableByteSpan(key.data() + 16, 16));
    states.emplace_back(key);
    states.back().Update(blocks);
  }
  return states;
}

// The same r and two random blocks: h lands below p.
Poly1305States BelowP(util::Rng& rng) {
  Poly1305States states;
  for (int call = 0; call < kCalls; ++call) {
    Poly1305Key key{};
    key[0] = 1;
    rng.Fill(util::MutableByteSpan(key.data() + 16, 16));
    states.emplace_back(key);
    states.back().Update(rng.RandomBytes(32));
  }
  return states;
}

TEST(ConstantTime, Poly1305FinishCountsDoNotDependOnTheAccumulator) {
  util::Xoshiro256Rng rng(4051);
  auto above = std::make_shared<Poly1305States>(AboveP(rng));
  auto below = std::make_shared<Poly1305States>(BelowP(rng));
  {
    // The above-p class really lands there: with s = 0 the tag is h mod p,
    // 3 for h = 2^130 - 2.
    Poly1305Key key{};
    key[0] = 1;
    Poly1305 zero_pad(key);
    zero_pad.Update(util::Bytes(32, 0xff));
    Poly1305Tag three{};
    three[0] = 3;
    EXPECT_EQ(zero_pad.Finish(), three);
  }
  std::string why;
  std::optional<ThreadCounters> counters = OpenCounters(why);
  if (!counters) {
    GTEST_SKIP() << why;
  }
  auto finish = [](std::shared_ptr<Poly1305States> states) {
    return [states](int call) {
      Poly1305Tag tag = (*states)[call].Finish();
      asm volatile("" : : "r"(tag.data()) : "memory");
    };
  };
  std::vector<ScalarClass> classes = {{"h below p", finish(below)},
                                      {"h in [p, 2^130)", finish(above)}};
  EXPECT_EQ(ClassDifferences(*counters, classes), "");
}

// One sealed 352-byte onion layer and three forgeries of it: the tag
// differs at byte 0, at byte 15, or everywhere.
struct Forgeries {
  AeadKey key;
  AeadNonce nonce;
  std::vector<util::Bytes> forged;  // by class
};

Forgeries MakeForgeries() {
  util::Xoshiro256Rng rng(4052);
  Forgeries f;
  rng.Fill(f.key);
  f.nonce = NonceFromUint64(9);
  const util::Bytes sealed = AeadSeal(f.key, f.nonce, {}, rng.RandomBytes(352));
  // The tag bytes [first, last) each class flips.
  const std::pair<size_t, size_t> kFlipped[] = {{15, 16}, {0, 1}, {0, kAeadTagSize}};
  for (const auto& [first, last] : kFlipped) {
    util::Bytes forged = sealed;
    for (size_t i = first; i < last; ++i) {
      forged[forged.size() - kAeadTagSize + i] ^= 0x5a;
    }
    f.forged.push_back(std::move(forged));
  }
  return f;
}

// The open's classes: byte 15, byte 0, everywhere.
template <typename Open>
std::vector<ScalarClass> ForgeryClasses(std::shared_ptr<const Forgeries> f, Open open) {
  static const char* kNames[] = {"tag differs at byte 15", "tag differs at byte 0",
                                 "tag differs everywhere"};
  std::vector<ScalarClass> classes;
  for (size_t c = 0; c < 3; ++c) {
    auto run = [f, c, open](int) {
      uint8_t out[352];
      const bool ok = open(*f, f->forged[c], out);
      asm volatile("" : : "r"(out), "r"(ok) : "memory");
    };
    classes.push_back({kNames[c], run});
  }
  return classes;
}

TEST(ConstantTime, AeadRejectCountsDoNotDependOnWhereTheTagDiffers) {
  std::string why;
  std::optional<ThreadCounters> counters = OpenCounters(why);
  if (!counters) {
    GTEST_SKIP() << why;
  }
  auto f = std::make_shared<const Forgeries>(MakeForgeries());
  auto open = [](const Forgeries& g, const util::Bytes& forged, uint8_t* out) {
    return AeadOpenInto(g.key, g.nonce, {}, forged, util::MutableByteSpan(out, 352));
  };
  for (const util::Bytes& forged : f->forged) {
    uint8_t out[352];
    ASSERT_FALSE(open(*f, forged, out));
  }
  EXPECT_EQ(ClassDifferences(*counters, ForgeryClasses(f, open)), "");
}

// A stand-in open: the AEAD's tag recomputed from the public pieces
// (ChaCha20 block 0 and Poly1305, RFC 8439 §2.8), then compared a byte at a
// time, stopping at the first difference.
[[gnu::noinline]] bool EarlyExitOpen(const Forgeries& f, const util::Bytes& sealed, uint8_t* out) {
  const size_t ct_len = sealed.size() - kAeadTagSize;
  uint8_t block[kChaCha20BlockSize];
  ChaCha20Block(f.key, f.nonce, 0, block);
  Poly1305Key mac_key;
  std::memcpy(mac_key.data(), block, mac_key.size());
  Poly1305 mac(mac_key);
  mac.Update(util::ByteSpan(sealed.data(), ct_len));
  const uint8_t zeros[16] = {};
  mac.Update(util::ByteSpan(zeros, (16 - ct_len % 16) % 16));
  uint8_t lengths[16] = {};
  util::StoreLe64(lengths + 8, ct_len);
  mac.Update(lengths);
  const Poly1305Tag expected = mac.Finish();
  for (size_t i = 0; i < kAeadTagSize; ++i) {
    if (expected[i] != sealed[ct_len + i]) {
      return false;
    }
  }
  ChaCha20Xor(f.key, f.nonce, 1, util::ByteSpan(sealed.data(), ct_len),
              util::MutableByteSpan(out, ct_len));
  return true;
}

TEST(ConstantTime, TagCompareThatStopsAtTheFirstDifferenceFails) {
  std::string why;
  std::optional<ThreadCounters> counters = OpenCounters(why);
  if (!counters) {
    GTEST_SKIP() << why;
  }
  auto f = std::make_shared<const Forgeries>(MakeForgeries());
  EXPECT_NE(ClassDifferences(*counters, ForgeryClasses(f, EarlyExitOpen)), "");
}

// --- Power: stand-in combs with a leak put back --------------------------

enum class Leak { kNone, kSelectStopsAtMatch, kBranchOnSign };

// A table of random field elements with the comb's shape: 32 levels of 8
// entries.
using StandInTable = std::array<std::array<fe25519::Fe, 8>, 32>;

const StandInTable& RandomTable() {
  static const StandInTable table = [] {
    util::Xoshiro256Rng rng(4044);
    StandInTable t;
    for (auto& level : t) {
      for (fe25519::Fe& entry : level) {
        for (uint64_t& limb : entry.v) {
          limb = rng.NextUint64() & fe25519::kMask51;
        }
      }
    }
    return t;
  }();
  return table;
}

// Out of line, so a branch around it cannot be turned into conditional
// moves.
[[gnu::noinline]] void Negate(fe25519::Fe& f) { fe25519::FeNeg(f, f); }

// X25519Precomp::Mult's digit loop over a stand-in table: per digit, a scan
// of the level's eight entries, a negation where the digit is negative, and
// a field multiplication into the accumulator. Leak::kNone does the scan and
// the negation with masks, as Select does; the other two do one of them the
// leaky way. The value means nothing; only the counts are looked at.
template <Leak kLeak>
std::array<uint8_t, 32> StandInComb(const X25519SecretKey& scalar) {
  const StandInTable& table = RandomTable();
  int8_t digits[64];
  internal::CombDigits(scalar, digits);
  fe25519::Fe acc = fe25519::FeOne();
  for (int i = 0; i < 64; ++i) {
    const uint64_t negative = static_cast<uint8_t>(digits[i]) >> 7;
    const uint8_t abs = static_cast<uint8_t>(
        digits[i] - ((-static_cast<int>(negative) & static_cast<int>(digits[i])) << 1));
    fe25519::Fe t = fe25519::FeOne();
    for (uint8_t j = 0; j < 8; ++j) {
      if constexpr (kLeak == Leak::kSelectStopsAtMatch) {
        if (abs == j + 1) {
          t = table[i / 2][j];
          break;
        }
      } else {
        const uint64_t match = (static_cast<uint64_t>(abs ^ (j + 1)) - 1) >> 63;
        fe25519::FeCmov(t, table[i / 2][j], match);
      }
    }
    if constexpr (kLeak == Leak::kBranchOnSign) {
      if (negative != 0) {
        Negate(t);
      }
    } else {
      fe25519::Fe minus;
      fe25519::FeNeg(minus, t);
      fe25519::FeCmov(t, minus, negative);
    }
    fe25519::FeMul(acc, acc, t);
  }
  std::array<uint8_t, 32> out;
  fe25519::FeToBytes(out.data(), acc);
  return out;
}

TEST(ConstantTime, StandInCombWithoutALeakPasses) {
  std::string why;
  std::optional<ThreadCounters> counters = OpenCounters(why);
  if (!counters) {
    GTEST_SKIP() << why;
  }
  EXPECT_EQ(ClassDifferences(*counters, ScalarClasses(StandInComb<Leak::kNone>)), "");
}

TEST(ConstantTime, SelectThatStopsAtTheMatchFails) {
  std::string why;
  std::optional<ThreadCounters> counters = OpenCounters(why);
  if (!counters) {
    GTEST_SKIP() << why;
  }
  auto leaky = StandInComb<Leak::kSelectStopsAtMatch>;
  EXPECT_NE(ClassDifferences(*counters, ScalarClasses(leaky)), "");
}

TEST(ConstantTime, CombThatBranchesOnTheSignFails) {
  std::string why;
  std::optional<ThreadCounters> counters = OpenCounters(why);
  if (!counters) {
    GTEST_SKIP() << why;
  }
  auto leaky = StandInComb<Leak::kBranchOnSign>;
  EXPECT_NE(ClassDifferences(*counters, ScalarClasses(leaky)), "");
}

}  // namespace
}  // namespace vuvuzela::crypto
