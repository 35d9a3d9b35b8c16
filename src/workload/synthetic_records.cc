#include "src/workload/synthetic_records.h"

#include "src/common/rng.h"

namespace pathdump {

std::vector<TibRecord> MakeSyntheticRecords(int n, uint32_t seed, SyntheticRecordOptions opt) {
  Rng rng(seed);
  std::vector<TibRecord> out;
  out.reserve(size_t(n));
  for (int i = 0; i < n; ++i) {
    TibRecord rec;
    rec.flow.src_ip = kHostIpBase | rng.UniformInt(opt.ip_space);
    rec.flow.dst_ip = kHostIpBase | rng.UniformInt(opt.ip_space);
    rec.flow.src_port = uint16_t(1024 + rng.UniformInt(20000));
    rec.flow.dst_port = uint16_t(80 + rng.UniformInt(8));
    rec.flow.protocol = kProtoTcp;
    Path p;
    int len = 3 + int(rng.UniformInt(3));
    for (int j = 0; j < len; ++j) {
      p.push_back(SwitchId(rng.UniformInt(opt.switch_space)));
    }
    rec.path = CompactPath::FromPath(p);
    rec.stime = SimTime(rng.UniformInt(3600)) * kNsPerSec;
    rec.etime = rec.stime + SimTime(rng.UniformInt(5000)) * kNsPerMs;
    rec.bytes = 100 + rng.UniformInt(1000000);
    rec.pkts = uint32_t(rec.bytes / 1460 + 1);
    out.push_back(rec);
  }
  return out;
}

void IngestSynthetic(Tib& tib, HostId host, uint32_t count, uint32_t seed,
                     const SyntheticRecordOptions& opt) {
  for (const TibRecord& rec : MakeSyntheticRecords(int(count), seed + uint32_t(host), opt)) {
    tib.Insert(rec);
  }
}

}  // namespace pathdump
