// TAB-DOMCOST (§8.2 "Dominant costs"): micro-benchmarks of the primitives
// that dominate round latency, plus the aggregate DH throughput figure that
// anchors the paper's 28-second lower-bound analysis (their 36-core server:
// ~340,000 Curve25519 ops/sec).

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/crypto/aead.h"
#include "src/crypto/chacha20_internal.h"
#include "src/crypto/onion.h"
#include "src/crypto/secret_cache.h"
#include "src/crypto/sha256.h"
#include "src/crypto/x25519.h"
#include "src/crypto/x25519_internal.h"
#include "src/crypto/x25519_precomp.h"
#include "src/sim/cost_model.h"
#include "src/util/random.h"
#include "src/util/thread_pool.h"
#include "src/wire/constants.h"

namespace {

using namespace vuvuzela;

void BM_X25519SharedSecret(benchmark::State& state) {
  util::Xoshiro256Rng rng(1);
  auto a = crypto::X25519KeyPair::Generate(rng);
  auto b = crypto::X25519KeyPair::Generate(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::X25519(a.secret_key, b.public_key));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_X25519SharedSecret);

// One scalar (a hop's key) times `range(0)` fresh points, the shape of a
// peeling block's cache misses; items are DHs, so items_per_second compares
// directly with BM_X25519SharedSecret's 1/time.
void BM_X25519Many(benchmark::State& state) {
  util::Xoshiro256Rng rng(1);
  auto server = crypto::X25519KeyPair::Generate(rng);
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<crypto::X25519PublicKey> points(n);
  for (auto& point : points) {
    point = crypto::X25519KeyPair::Generate(rng).public_key;
  }
  std::vector<crypto::X25519SharedSecret> out(n);
  for (auto _ : state) {
    crypto::X25519Many(server.secret_key, points, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * n));
  state.SetLabel(std::to_string(crypto::X25519ManyLanes()) + " lanes");
}
BENCHMARK(BM_X25519Many)->Arg(8)->Arg(64);

// `range(0)` (scalar, point) pairs, every scalar distinct: the shape of a
// block of cover-onion keygens and layer DHs. Items are DHs.
void BM_X25519Lanes(benchmark::State& state) {
  util::Xoshiro256Rng rng(1);
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<crypto::X25519SecretKey> scalars(n);
  std::vector<crypto::X25519PublicKey> points(n);
  for (size_t i = 0; i < n; ++i) {
    rng.Fill(scalars[i]);
    points[i] = crypto::X25519KeyPair::Generate(rng).public_key;
  }
  std::vector<crypto::X25519SharedSecret> out(n);
  for (auto _ : state) {
    crypto::X25519Lanes(scalars, points, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * n));
  state.SetLabel(std::to_string(crypto::X25519ManyLanes()) + " lanes");
}
BENCHMARK(BM_X25519Lanes)->Arg(8)->Arg(64);

// `range(0)` distinct scalars times one fixed point through its comb table,
// the shape of a block of cover-onion keygens (the base point) or of one
// layer's DHs (a suffix key). Items are multiplications, so
// items_per_second compares directly with BM_X25519Lanes.
void BM_X25519CombLanes(benchmark::State& state) {
  util::Xoshiro256Rng rng(1);
  const size_t n = static_cast<size_t>(state.range(0));
  const auto table =
      *crypto::X25519Precomp::Create(crypto::X25519KeyPair::Generate(rng).public_key);
  std::vector<crypto::X25519SecretKey> scalars(n);
  for (auto& scalar : scalars) {
    rng.Fill(scalar);
  }
  std::vector<crypto::X25519SharedSecret> out(n);
  for (auto _ : state) {
    crypto::X25519CombLanes(table, scalars, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * n));
  state.SetLabel(std::to_string(crypto::X25519ManyLanes()) + " lanes");
}
BENCHMARK(BM_X25519CombLanes)->Arg(8)->Arg(64);

void BM_X25519KeyGen(benchmark::State& state) {
  util::Xoshiro256Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::X25519KeyPair::Generate(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_X25519KeyGen);

void BM_AeadSealEnvelope(benchmark::State& state) {
  util::Xoshiro256Rng rng(3);
  crypto::AeadKey key;
  rng.Fill(key);
  util::Bytes msg = rng.RandomBytes(wire::kMessageSize);
  uint64_t round = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        crypto::AeadSeal(key, crypto::NonceFromUint64(round++), {}, msg));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(wire::kMessageSize));
}
BENCHMARK(BM_AeadSealEnvelope);

void BM_Sha256DeadDropId(benchmark::State& state) {
  util::Xoshiro256Rng rng(4);
  util::Bytes input = rng.RandomBytes(40);  // secret ‖ round
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha256::Hash(input));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Sha256DeadDropId);

// The hop's replay digest over a conv_users-sized request (hop_daemon.cc
// DigestRequest): 6000 items, each fed as an 8-byte length and 400 bytes.
// It runs on the serve thread before every pass.
void BM_Sha256RequestDigest(benchmark::State& state) {
  constexpr size_t kItems = 6000;
  constexpr size_t kItemSize = 400;
  util::Xoshiro256Rng rng(8);
  util::Bytes items = rng.RandomBytes(kItems * kItemSize);
  const uint8_t len[8] = {kItemSize & 0xff, kItemSize >> 8};
  for (auto _ : state) {
    crypto::Sha256 h;
    for (size_t i = 0; i < kItems; ++i) {
      h.Update(len);
      h.Update(util::ByteSpan(items.data() + i * kItemSize, kItemSize));
    }
    benchmark::DoNotOptimize(h.Finish());
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(kItems * (8 + kItemSize)));
}
BENCHMARK(BM_Sha256RequestDigest)->Unit(benchmark::kMillisecond);

// One onion layer's AEAD open in place, 352 plaintext bytes: with the secret
// cache warm, this is what is left of a layer unwrap. `kernel` is the
// keystream kernel; BM_AeadOpenOnion runs the process's, and the rows
// registered in main, BM_AeadOpenOnion/<kernel>, run each kernel this CPU has.
void AeadOpenOnion(benchmark::State& state, crypto::internal::ChaCha20Kernel kernel) {
  constexpr size_t kLayer = 352;
  util::Xoshiro256Rng rng(9);
  crypto::AeadKey key;
  rng.Fill(key);
  crypto::AeadNonce nonce = crypto::NonceFromUint64(1);
  util::Bytes sealed = crypto::AeadSeal(key, nonce, {}, rng.RandomBytes(kLayer));
  util::Bytes plain(kLayer);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::internal::AeadOpenInto(kernel, key, nonce, {}, sealed, plain));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(kLayer));
}

void BM_AeadOpenOnion(benchmark::State& state) {
  AeadOpenOnion(state, crypto::internal::SelectedChaCha20Kernel());
}
BENCHMARK(BM_AeadOpenOnion);

// A hop's backward pass seals each 256-byte response in place under its
// onion's layer key (OnionSealResponseInto).
void BM_AeadSealResponse(benchmark::State& state) {
  constexpr size_t kResponse = 256;
  util::Xoshiro256Rng rng(10);
  crypto::AeadKey key;
  rng.Fill(key);
  util::Bytes buffer = rng.RandomBytes(kResponse + crypto::kAeadTagSize);
  uint64_t round = 0;
  for (auto _ : state) {
    crypto::AeadSealInto(key, crypto::NonceFromUint64(round++, 2), {},
                         util::ByteSpan(buffer.data(), kResponse), buffer);
    benchmark::DoNotOptimize(buffer.data());
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(kResponse));
}
BENCHMARK(BM_AeadSealResponse);

// Eight keystream blocks, one kernel call (registered per kernel in main as
// BM_ChaCha20Keystream/<kernel>).
void ChaCha20Keystream(benchmark::State& state, crypto::internal::ChaCha20Kernel kernel) {
  crypto::ChaCha20Key key{};
  crypto::ChaCha20Nonce nonce{};
  uint8_t out[crypto::internal::kChaCha20KernelBytes];
  uint32_t counter = 0;
  for (auto _ : state) {
    kernel(key, nonce, counter, crypto::internal::kChaCha20KernelBlocks, out);
    counter += crypto::internal::kChaCha20KernelBlocks;
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(sizeof(out)));
}

void BM_OnionWrap3Servers(benchmark::State& state) {
  util::Xoshiro256Rng rng(5);
  std::vector<crypto::X25519PublicKey> chain;
  for (int i = 0; i < 3; ++i) {
    chain.push_back(crypto::X25519KeyPair::Generate(rng).public_key);
  }
  util::Bytes payload = rng.RandomBytes(wire::kExchangeRequestSize);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::OnionWrap(chain, 1, payload, rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OnionWrap3Servers);

void BM_OnionUnwrapLayer(benchmark::State& state) {
  util::Xoshiro256Rng rng(6);
  auto server = crypto::X25519KeyPair::Generate(rng);
  std::vector<crypto::X25519PublicKey> chain = {server.public_key};
  util::Bytes payload = rng.RandomBytes(wire::kExchangeRequestSize);
  auto onion = crypto::OnionWrap(chain, 1, payload, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::OnionUnwrapLayer(server.secret_key, 1, onion.data));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OnionUnwrapLayer);

// --- Batch-vs-scalar: the primitives behind MixServer's batched pass -------
// Each scalar benchmark above has a batched counterpart here; the deltas are
// exactly what the batched pass saves per onion (see docs/PERFORMANCE.md).

// Arbitrary-point comb table vs the Montgomery ladder (same multiplication).
void BM_X25519PrecompMult(benchmark::State& state) {
  util::Xoshiro256Rng rng(1);
  auto a = crypto::X25519KeyPair::Generate(rng);
  auto b = crypto::X25519KeyPair::Generate(rng);
  auto table = crypto::X25519Precomp::Create(b.public_key);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table->Mult(a.secret_key));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_X25519PrecompMult);

// Unwrap with a warm SecretCache + caller scratch (the steady-state batched
// pass) vs BM_OnionUnwrapLayer's per-onion DH + allocation.
void BM_OnionUnwrapLayerCached(benchmark::State& state) {
  util::Xoshiro256Rng rng(6);
  auto server = crypto::X25519KeyPair::Generate(rng);
  std::vector<crypto::X25519PublicKey> chain = {server.public_key};
  util::Bytes payload = rng.RandomBytes(wire::kExchangeRequestSize);
  auto onion = crypto::OnionWrap(chain, 1, payload, rng);
  crypto::SecretCache cache;
  crypto::X25519PublicKey ephemeral;
  std::memcpy(ephemeral.data(), onion.data.data(), ephemeral.size());
  util::Bytes inner(onion.data.size() - crypto::kOnionRequestLayerOverhead);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::OnionOpenLayerInto(
        cache.Get(server.secret_key, ephemeral, crypto::OnionContext()), 1,
        onion.data, inner));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OnionUnwrapLayerCached);

// One onion wrapped through precomputed chain-suffix tables (the reference
// CoverOnionWrapper is tested against) vs BM_OnionWrap3Servers' ladder.
void BM_OnionWrapPrecomp3Servers(benchmark::State& state) {
  util::Xoshiro256Rng rng(5);
  std::vector<crypto::X25519PublicKey> chain;
  std::vector<crypto::X25519Precomp> tables;
  for (int i = 0; i < 3; ++i) {
    chain.push_back(crypto::X25519KeyPair::Generate(rng).public_key);
    tables.push_back(*crypto::X25519Precomp::Create(chain.back()));
  }
  util::Bytes payload = rng.RandomBytes(wire::kExchangeRequestSize);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::OnionWrapPrecomp(tables, 1, payload, rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OnionWrapPrecomp3Servers);

// A hop-0 forward pass's cover onions at bench scale (µ = 300: 600 onions,
// two layers each) on one thread, by CoverOnionWrapper on the process's comb
// kernel (arg 0) and on the portable kernel (arg 1), the cost on a CPU
// without AVX-512 IFMA. Items are onions.
void BM_CoverOnionWrap600(benchmark::State& state) {
  util::Xoshiro256Rng rng(8);
  std::vector<crypto::X25519PublicKey> suffix;
  for (int i = 0; i < 2; ++i) {
    suffix.push_back(crypto::X25519KeyPair::Generate(rng).public_key);
  }
  const crypto::CoverOnionWrapper wrapper(suffix);
  const bool portable = state.range(0) == 1;
  constexpr size_t kOnions = 600;
  std::vector<crypto::ChaCha20Key> seeds(kOnions);
  for (auto& seed : seeds) {
    rng.Fill(seed);
  }
  util::Bytes payloads = rng.RandomBytes(kOnions * wire::kExchangeRequestSize);
  util::Bytes out(kOnions * crypto::OnionRequestSize(wire::kExchangeRequestSize, suffix.size()));
  for (auto _ : state) {
    if (portable) {
      wrapper.WrapInto(crypto::internal::X25519CombLanesPortable, 1, seeds, payloads, out);
    } else {
      wrapper.WrapInto(1, seeds, payloads, out);
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kOnions));
  state.SetLabel(portable ? "portable comb"
                          : std::to_string(crypto::X25519ManyLanes()) + "-lane comb");
}
BENCHMARK(BM_CoverOnionWrap600)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// Aggregate unwrap throughput across all cores: the server-side figure that
// corresponds to the paper's "340,000 Curve25519 ops/sec on 36 cores".
void BM_ParallelUnwrapThroughput(benchmark::State& state) {
  util::Xoshiro256Rng rng(7);
  auto server = crypto::X25519KeyPair::Generate(rng);
  std::vector<crypto::X25519PublicKey> chain = {server.public_key};
  constexpr size_t kBatch = 8192;
  std::vector<util::Bytes> onions(kBatch);
  util::GlobalPool().ParallelFor(kBatch, [&](size_t i) {
    util::Xoshiro256Rng task_rng(i);
    onions[i] =
        crypto::OnionWrap(chain, 1, task_rng.RandomBytes(wire::kExchangeRequestSize), task_rng)
            .data;
  });
  for (auto _ : state) {
    util::GlobalPool().ParallelFor(kBatch, [&](size_t i) {
      benchmark::DoNotOptimize(crypto::OnionUnwrapLayer(server.secret_key, 1, onions[i]));
    });
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(kBatch));
}
BENCHMARK(BM_ParallelUnwrapThroughput)->Unit(benchmark::kMillisecond);

// Microseconds per call of `fn` over `iters` iterations (one warm-up call).
template <typename Fn>
double TimeUs(size_t iters, Fn&& fn) {
  fn();
  auto start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < iters; ++i) {
    fn();
  }
  auto elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return elapsed / static_cast<double>(iters) * 1e6;
}

// The batch-vs-scalar summary the CI trajectory tracks: one JSONL row pinning
// the four per-onion savings the batched MixServer pass is built on. Printed
// (and emitted to $VUVUZELA_BENCH_JSON) on every run, independently of the
// google-benchmark registry above, so the bench-trajectory job gets it from
// the same invocation that produces the human-readable table.
void PrintBatchVsScalarSection() {
  using namespace vuvuzela;
  util::Xoshiro256Rng rng(99);
  auto client = crypto::X25519KeyPair::Generate(rng);
  auto server = crypto::X25519KeyPair::Generate(rng);
  auto table = crypto::X25519Precomp::Create(server.public_key);

  constexpr size_t kLadderIters = 200;   // 50-120us each on the ladder
  constexpr size_t kFastIters = 2000;    // cached / comb paths

  double mult_ladder_us = TimeUs(kLadderIters, [&] {
    benchmark::DoNotOptimize(crypto::X25519(client.secret_key, server.public_key));
  });
  double mult_precomp_us = TimeUs(kLadderIters, [&] {
    benchmark::DoNotOptimize(table->Mult(client.secret_key));
  });

  // A peeling block's cache misses: one hop key times 64 fresh points.
  util::Xoshiro256Rng fresh_rng(100);
  std::vector<crypto::X25519PublicKey> fresh(64);
  for (auto& point : fresh) {
    point = crypto::X25519KeyPair::Generate(fresh_rng).public_key;
  }
  std::vector<crypto::X25519SharedSecret> fresh_secrets(fresh.size());
  double miss_batch_us = TimeUs(kLadderIters / 8, [&] {
                           crypto::X25519Many(server.secret_key, fresh, fresh_secrets);
                           benchmark::DoNotOptimize(fresh_secrets.data());
                         }) /
                         static_cast<double>(fresh.size());
  // The same 64 points, each with its own scalar.
  std::vector<crypto::X25519SecretKey> lane_scalars(fresh.size());
  for (auto& scalar : lane_scalars) {
    fresh_rng.Fill(scalar);
  }
  double lanes_us = TimeUs(kLadderIters / 8, [&] {
                      crypto::X25519Lanes(lane_scalars, fresh, fresh_secrets);
                      benchmark::DoNotOptimize(fresh_secrets.data());
                    }) /
                    static_cast<double>(fresh.size());
  // The same 64 scalars times the server's key through its comb table.
  double comb_lanes_us = TimeUs(kLadderIters / 8, [&] {
                           crypto::X25519CombLanes(*table, lane_scalars, fresh_secrets);
                           benchmark::DoNotOptimize(fresh_secrets.data());
                         }) /
                         static_cast<double>(fresh.size());

  std::vector<crypto::X25519PublicKey> chain = {server.public_key};
  util::Bytes payload = rng.RandomBytes(wire::kExchangeRequestSize);
  auto onion = crypto::OnionWrap(chain, 1, payload, rng);
  crypto::SecretCache cache;
  crypto::X25519PublicKey ephemeral;
  std::memcpy(ephemeral.data(), onion.data.data(), ephemeral.size());
  util::Bytes inner(onion.data.size() - crypto::kOnionRequestLayerOverhead);
  double unwrap_scalar_us = TimeUs(kLadderIters, [&] {
    benchmark::DoNotOptimize(crypto::OnionUnwrapLayer(server.secret_key, 1, onion.data));
  });
  double unwrap_cached_us = TimeUs(kFastIters, [&] {
    benchmark::DoNotOptimize(crypto::OnionOpenLayerInto(
        cache.Get(server.secret_key, ephemeral, crypto::OnionContext()), 1,
        onion.data, inner));
  });

  std::vector<crypto::X25519PublicKey> suffix;
  std::vector<crypto::X25519Precomp> tables;
  for (int i = 0; i < 3; ++i) {
    suffix.push_back(crypto::X25519KeyPair::Generate(rng).public_key);
    tables.push_back(*crypto::X25519Precomp::Create(suffix.back()));
  }
  double wrap_ladder_us = TimeUs(kLadderIters / 2, [&] {
    benchmark::DoNotOptimize(crypto::OnionWrap(suffix, 1, payload, rng));
  });
  double wrap_precomp_us = TimeUs(kLadderIters / 2, [&] {
    benchmark::DoNotOptimize(crypto::OnionWrapPrecomp(tables, 1, payload, rng));
  });

  // A hop's cover wrap: 64 two-layer onions on the portable comb kernel and
  // on the process's (the lane comb on IFMA), per onion.
  const std::vector<crypto::X25519PublicKey> cover_suffix(suffix.begin() + 1, suffix.end());
  const crypto::CoverOnionWrapper cover_wrapper(cover_suffix);
  std::vector<crypto::ChaCha20Key> cover_seeds(64);
  for (auto& seed : cover_seeds) {
    rng.Fill(seed);
  }
  util::Bytes cover_payloads = rng.RandomBytes(cover_seeds.size() * payload.size());
  util::Bytes cover_out(cover_seeds.size() *
                        crypto::OnionRequestSize(payload.size(), cover_suffix.size()));
  auto cover_wrap_us = [&](crypto::X25519CombKernel kernel) {
    return TimeUs(kLadderIters / 8, [&] {
             cover_wrapper.WrapInto(kernel, 1, cover_seeds, cover_payloads, cover_out);
             benchmark::DoNotOptimize(cover_out.data());
           }) /
           static_cast<double>(cover_seeds.size());
  };
  double cover_portable_us = cover_wrap_us(crypto::internal::X25519CombLanesPortable);
  double cover_lanes_us = cover_wrap_us(crypto::internal::SelectedCombKernel());

  // One 352-byte onion layer's AEAD open on the portable keystream kernel
  // and on the process's (8 lanes on AVX2 or AVX-512VL), in nanoseconds.
  crypto::AeadKey aead_key;
  rng.Fill(aead_key);
  const crypto::AeadNonce aead_nonce = crypto::NonceFromUint64(1);
  const util::Bytes layer = crypto::AeadSeal(aead_key, aead_nonce, {}, rng.RandomBytes(352));
  util::Bytes layer_plain(352);
  auto aead_open_ns = [&](crypto::internal::ChaCha20Kernel kernel) {
    return TimeUs(kFastIters * 10, [&] {
             benchmark::DoNotOptimize(crypto::internal::AeadOpenInto(
                 kernel, aead_key, aead_nonce, {}, layer, layer_plain));
           }) *
           1e3;
  };
  double aead_portable_ns = aead_open_ns(crypto::internal::ChaCha20BlocksPortable);
  double aead_lanes_ns = aead_open_ns(crypto::internal::SelectedChaCha20Kernel());

  std::printf("\n=== TAB-DOMCOST-BATCH: batch primitives vs scalar reference ===\n");
  std::printf("  X25519 mult:  ladder %8.2f us  comb table %8.2f us  (%.2fx)\n", mult_ladder_us,
              mult_precomp_us, mult_ladder_us / mult_precomp_us);
  std::printf("  cache-miss DH: ladder %7.2f us  batch kernel %6.2f us  (%.2fx, %zu lanes)\n",
              mult_ladder_us, miss_batch_us, mult_ladder_us / miss_batch_us,
              crypto::X25519ManyLanes());
  std::printf("  lane DH:      ladder %8.2f us  X25519Lanes %7.2f us  (%.2fx, %zu lanes)\n",
              mult_ladder_us, lanes_us, mult_ladder_us / lanes_us, crypto::X25519ManyLanes());
  std::printf("  lane comb:    lanes %9.2f us  X25519CombLanes %3.2f us  (%.2fx, %zu lanes)\n",
              lanes_us, comb_lanes_us, lanes_us / comb_lanes_us, crypto::X25519ManyLanes());
  std::printf("  layer unwrap: scalar %8.2f us  cached+scratch %4.2f us  (%.1fx)\n",
              unwrap_scalar_us, unwrap_cached_us, unwrap_scalar_us / unwrap_cached_us);
  std::printf("  noise wrap 3: ladder %8.2f us  precomp %6.2f us  (%.2fx)\n", wrap_ladder_us,
              wrap_precomp_us, wrap_ladder_us / wrap_precomp_us);
  std::printf("  cover wrap 2: comb %10.2f us  lane comb %4.2f us  (%.2fx, %zu lanes)\n",
              cover_portable_us, cover_lanes_us, cover_portable_us / cover_lanes_us,
              crypto::X25519ManyLanes());
  std::printf("  AEAD open 352 B: portable %6.0f ns  8-lane %6.0f ns  (%.2fx)\n", aead_portable_ns,
              aead_lanes_ns, aead_portable_ns / aead_lanes_ns);

  bench::EmitJson("tab_domcost_batch",
                  {{"mult_ladder_us", mult_ladder_us},
                   {"mult_precomp_us", mult_precomp_us},
                   {"mult_speedup", mult_ladder_us / mult_precomp_us},
                   {"miss_dh_ladder_us", mult_ladder_us},
                   {"miss_dh_batch_us", miss_batch_us},
                   {"miss_dh_speedup", mult_ladder_us / miss_batch_us},
                   {"miss_dh_lanes", static_cast<double>(crypto::X25519ManyLanes())},
                   {"unwrap_scalar_us", unwrap_scalar_us},
                   {"unwrap_cached_us", unwrap_cached_us},
                   {"unwrap_speedup", unwrap_scalar_us / unwrap_cached_us},
                   {"wrap_ladder_us", wrap_ladder_us},
                   {"wrap_precomp_us", wrap_precomp_us},
                   {"wrap_speedup", wrap_ladder_us / wrap_precomp_us},
                   {"lane_dh_us", lanes_us},
                   {"lane_dh_speedup", mult_ladder_us / lanes_us},
                   {"lane_comb_us", comb_lanes_us},
                   {"lane_comb_speedup", lanes_us / comb_lanes_us},
                   {"cover_wrap_comb_us", cover_portable_us},
                   {"cover_wrap_lane_comb_us", cover_lanes_us},
                   {"cover_wrap_speedup", cover_portable_us / cover_lanes_us},
                   {"aead_open_portable_ns", aead_portable_ns},
                   {"aead_open_lanes_ns", aead_lanes_ns},
                   {"aead_open_speedup", aead_portable_ns / aead_lanes_ns}});
}

}  // namespace

int main(int argc, char** argv) {
  for (const auto& [name, kernel] : vuvuzela::crypto::internal::ChaCha20Kernels()) {
    benchmark::RegisterBenchmark((std::string("BM_ChaCha20Keystream/") + name).c_str(),
                                 ChaCha20Keystream, kernel);
    benchmark::RegisterBenchmark((std::string("BM_AeadOpenOnion/") + name).c_str(), AeadOpenOnion,
                                 kernel);
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  PrintBatchVsScalarSection();

  // The lower-bound analysis of §8.2, recomputed with this machine's
  // measured throughput.
  auto model = vuvuzela::sim::CostModel::Measure();
  std::printf("\n=== TAB-DOMCOST: dominant-cost lower bound (§8.2) ===\n");
  std::printf("  measured aggregate unwrap throughput: %.0f req/s (paper server: ~340,000)\n",
              model.dh_ops_per_sec);
  double lb = model.ConversationCryptoLowerBound(2'000'000, 3, 300'000);
  std::printf("  2M users, 3 servers, mu=300K: crypto lower bound %.1f s "
              "(paper: ~28 s on their hardware)\n", lb);
  double full = model.ConversationRoundLatency(2'000'000, 3, 300'000);
  std::printf("  modeled full-round latency: %.1f s -> within %.2fx of lower bound "
              "(paper: within 2x)\n", full, full / lb);
  return 0;
}
