#include "src/transport/fault_injector.h"

#include <cstdlib>

#include "src/transport/wire.h"

namespace pathdump {
namespace transport {

namespace {

uint64_t EnvU64(const char* name, uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || v[0] == '\0') {
    return fallback;
  }
  return std::strtoull(v, nullptr, 10);
}

}  // namespace

FaultInjectorConfig FaultInjectorConfig::FromEnv() {
  FaultInjectorConfig cfg;
  cfg.seed = EnvU64("PATHDUMP_FAULT_SEED", 1);
  cfg.drop_per_10k = uint32_t(EnvU64("PATHDUMP_FAULT_DROP", 0));
  cfg.corrupt_per_10k = uint32_t(EnvU64("PATHDUMP_FAULT_CORRUPT", 0));
  cfg.delay_per_10k = uint32_t(EnvU64("PATHDUMP_FAULT_DELAY", 0));
  cfg.dup_per_10k = uint32_t(EnvU64("PATHDUMP_FAULT_DUP", 0));
  return cfg;
}

FaultInjector::FaultInjector(const FaultInjectorConfig& config)
    : config_(config), rng_(config.seed, /*stream=*/0xFA017u) {}

FaultInjector::Action FaultInjector::Next() {
  const uint32_t draw = rng_.UniformInt(10'000);
  uint32_t edge = config_.drop_per_10k;
  if (draw < edge) {
    ++counts_.dropped;
    return Action::kDrop;
  }
  edge += config_.corrupt_per_10k;
  if (draw < edge) {
    ++counts_.corrupted;
    return Action::kCorrupt;
  }
  edge += config_.delay_per_10k;
  if (draw < edge) {
    ++counts_.delayed;
    return Action::kDelay;
  }
  edge += config_.dup_per_10k;
  if (draw < edge) {
    ++counts_.duplicated;
    return Action::kDup;
  }
  return Action::kNone;
}

void FaultInjector::Corrupt(std::vector<uint8_t>& frame) {
  if (frame.size() <= kFrameHeaderBytes) {
    return;  // no payload to flip; header flips would change the category
  }
  // Flip one bit anywhere past the header: the whole-frame CRC detects
  // it, so the reactor counts exactly one bad_checksum per corrupt.
  const size_t span = frame.size() - kFrameHeaderBytes;
  const size_t at = kFrameHeaderBytes + rng_.UniformInt(uint32_t(span));
  frame[at] ^= uint8_t(1u << rng_.UniformInt(8));
}

}  // namespace transport
}  // namespace pathdump
