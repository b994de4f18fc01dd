// vuvuzela-keygen — the chain key ceremony (ROADMAP "real key ceremony").
//
//   $ vuvuzela-keygen --servers 3 --out /etc/vuvuzela/keys
//   /etc/vuvuzela/keys/hop0.key   (0600: hop 0's secret + noise seed)
//   /etc/vuvuzela/keys/hop1.key
//   /etc/vuvuzela/keys/hop2.key
//   /etc/vuvuzela/keys/chain.pub  (public directory, safe to distribute)
//
// Each hop<i>.key is distributed out-of-band to hop i's operator and nobody
// else; chain.pub goes to every process (hops, the coordinator, clients).
// Hops then run with `--key-file hopI.key --key-dir chain.pub` and hold only
// their own secret, unlike the shared-seed ceremony where any process can
// reconstruct the whole chain.
//
// --seed S derives the same material as the in-process `--seed` ceremony
// (transport::DeriveChainKeys), so a seeded test deployment can be migrated
// to key files without changing a single round byte. Without --seed the
// material comes from the OS entropy pool.

#include <sys/stat.h>

#include <cstdio>
#include <cstring>
#include <string>

#include "src/coord/keydir.h"
#include "src/crypto/drbg.h"
#include "src/mixnet/chain.h"
#include "src/transport/hop_chain.h"
#include "src/util/flags.h"

using namespace vuvuzela;

namespace {

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --servers N --out DIR [--seed S]\n"
               "Writes DIR/hop<i>.key (one secret per hop, mode 0600) and DIR/chain.pub\n"
               "(the public key directory). --seed derives the same material as the\n"
               "daemons' shared-seed ceremony; omit it for keys from the OS entropy pool.\n",
               argv0);
}

}  // namespace

int main(int argc, char** argv) {
  size_t servers = 3;
  std::string out;
  uint64_t seed = 0;
  bool seeded = false;
  util::FlagSet flags;
  flags.Unsigned("--servers", UINT64_MAX, &servers);
  flags.String("--out", &out);
  flags.Value("--seed", [&](const char* value) {
    seeded = true;
    return util::ParseUnsigned(value, UINT64_MAX, &seed);
  });
  if (!flags.Parse(argc, argv) || servers == 0 || out.empty()) {
    Usage(argv[0]);
    return 2;
  }

  ::mkdir(out.c_str(), 0700);  // best-effort; write errors report below

  mixnet::ChainKeyMaterial keys;
  if (seeded) {
    keys = transport::DeriveChainKeys(seed, servers);
  } else {
    crypto::ChaChaRng rng = crypto::ChaChaRng::FromSystem();
    keys = mixnet::DrawChainKeys(servers, rng);
  }

  coord::KeyDirectory directory;
  for (size_t i = 0; i < servers; ++i) {
    coord::HopKeyFile key_file;
    key_file.position = i;
    key_file.key_pair = keys.key_pairs[i];
    key_file.noise_seed = keys.rng_seeds[i];
    std::string path = out + "/hop" + std::to_string(i) + ".key";
    if (!coord::WriteHopKeyFile(path, key_file)) {
      std::fprintf(stderr, "vuvuzela-keygen: cannot write %s\n", path.c_str());
      return 1;
    }
    directory.AddContact("hop" + std::to_string(i), keys.public_keys[i]);
  }
  std::string directory_path = out + "/chain.pub";
  if (!directory.SaveToFile(directory_path)) {
    std::fprintf(stderr, "vuvuzela-keygen: cannot write %s\n", directory_path.c_str());
    return 1;
  }
  std::printf("vuvuzela-keygen: wrote %zu hop key files and %s\n", servers, directory_path.c_str());
  return 0;
}
