// Fuzz harness for the sweep wire codec: the shard-artifact decoder and
// encoder (sweep/shard).
//
// Properties under fuzz:
//   1. DecodeShardArtifact never crashes/UBs/hangs on arbitrary bytes —
//      malformed artifacts from a crashed or hostile worker must be
//      rejected with a Status.
//   2. The codec is a fixed point on its own output: a decoded artifact
//      re-encodes to bytes that decode again and re-encode identically.
//      This is the byte-exactness contract the N-shard merge tests pin for
//      well-formed artifacts, extended to every artifact the decoder accepts.

#include <cstddef>
#include <cstdint>
#include <string>

#include "sweep/shard.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string text(reinterpret_cast<const char*>(data), size);
  auto decoded = emsim::sweep::DecodeShardArtifact(text);
  if (!decoded.ok()) {
    return 0;
  }
  const std::string encoded = emsim::sweep::EncodeShardArtifact(decoded.value());
  auto second = emsim::sweep::DecodeShardArtifact(encoded);
  if (!second.ok()) {
    __builtin_trap();  // our own encoding must always decode
  }
  if (emsim::sweep::EncodeShardArtifact(second.value()) != encoded) {
    __builtin_trap();  // encode/decode/encode drifted: not byte-exact
  }
  return 0;
}
