// Search load generators over loopback TCP, one VdtClient per connection.
//  - Paced (open loop): request i is due at start + i / rate; connection c
//    sends the requests with i % connections == c. Latency is timed from
//    the due time, so a stall also charges the requests queued behind it;
//    how late the generator itself ran is reported separately.
//  - Closed loop: each connection sends its next request as soon as the
//    previous reply arrives, for a fixed duration; replies are checked
//    after that window.
#ifndef VDT_PERFBENCH_LOAD_H_
#define VDT_PERFBENCH_LOAD_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>

#include "common/float_matrix.h"
#include "harness.h"
#include "net/protocol.h"

namespace perfbench {

struct LoadResult {
  Samples latency_us;   // paced: due time -> reply
  Samples service_us;   // paced: send -> reply
  Samples lateness_us;  // paced: send time - due time
  /// Closed loop: when each reply arrived, in seconds from the start.
  std::vector<double> completions_s;
  double elapsed_s = 0;
};

/// Called with (query row, token taken just before the send, reply) for
/// every successful reply; runs on the connection's thread.
using ReplyCheck = std::function<void(size_t, uint64_t,
                                      const vdt::net::SearchReplyWire&)>;
/// Read just before each send (null = always 0).
using SendToken = std::function<uint64_t()>;

/// Paced load: `count` requests at `rate`/s, or — with count == 0 — until
/// `*stop` becomes true.
LoadResult RunPaced(OpCounter* ops, uint16_t port,
                    const std::string& collection,
                    const vdt::FloatMatrix& queries, size_t k, double rate,
                    size_t count, size_t connections,
                    const std::atomic<bool>* stop, const SendToken& token,
                    const ReplyCheck& check);

/// Closed-loop load for `seconds` over `connections` connections.
LoadResult RunClosed(OpCounter* ops, uint16_t port,
                     const std::string& collection,
                     const vdt::FloatMatrix& queries, size_t k, double seconds,
                     size_t connections, const ReplyCheck& check);

}  // namespace perfbench

#endif  // VDT_PERFBENCH_LOAD_H_
