// Synthetic TIB record streams.
//
// One definition for the records the shard/standing/channel tests, the
// query benches and the shared-memory Ingest command all feed their TIBs.
// Streams are reproducible: a given (seed, options) pair always yields
// the same records, and each record consumes a fixed number of rng draws.
//
// The transport's kIngest frame (src/transport/wire.h) is defined by this
// generator: an agent told to ingest (count, seed, options) runs
// IngestSynthetic, and so does any in-process twin that must hold the
// same TIB.

#ifndef PATHDUMP_SRC_WORKLOAD_SYNTHETIC_RECORDS_H_
#define PATHDUMP_SRC_WORKLOAD_SYNTHETIC_RECORDS_H_

#include <cstdint>
#include <vector>

#include "src/common/types.h"
#include "src/edge/tib.h"

namespace pathdump {

struct SyntheticRecordOptions {
  // Low bits of src/dst IPs are drawn from [0, ip_space).
  uint32_t ip_space = 4096;
  // Path switches are drawn from [0, switch_space), path length 3..5.
  uint32_t switch_space = 24;
};

// `n` random TIB records from `seed`: random flows, random short paths,
// uniform sizes — topology-agnostic (paths need not exist anywhere).
std::vector<TibRecord> MakeSyntheticRecords(int n, uint32_t seed,
                                            SyntheticRecordOptions opt = {});

// Inserts `host`'s share of one Ingest broadcast: `count` records drawn
// from seed + host, so one (count, seed) gives every host a distinct but
// reproducible stream.
void IngestSynthetic(Tib& tib, HostId host, uint32_t count, uint32_t seed,
                     const SyntheticRecordOptions& opt);

}  // namespace pathdump

#endif  // PATHDUMP_SRC_WORKLOAD_SYNTHETIC_RECORDS_H_
